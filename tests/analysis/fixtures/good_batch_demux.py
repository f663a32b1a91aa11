"""Known-good fixture: the batch-demux contract done right.

The ``demux`` helper guards each item with its own try/except and
reports ``("err", type, msg)`` in the failed slot; ``commit_shadow_many``
holds the invariant by handing it its items, ``write_shadow_many`` by a
hand-rolled loop of the same shape; the read-plane
``entry_versions_many`` sweep below them may fail whole-batch by design
(retried reads are harmless) and must not be flagged.
"""


def demux(handler, items):
    outcomes = []
    for item in items:
        try:
            outcomes.append(("ok", handler(*item)))
        except Exception as exc:
            outcomes.append(("err", type(exc).__name__, str(exc)))
    return outcomes


class DemuxingBatchStore:
    def write_shadow(self, uid_text, buffer, version):
        return True

    def commit_shadow(self, uid_text):
        return True

    def entry_versions(self, uid_text):
        return (1, 1)

    def commit_shadow_many(self, items):
        return demux(self.commit_shadow, items)

    def write_shadow_many(self, items):
        outcomes = []
        for item in items:
            try:
                uid_text, buffer, version = item
                outcomes.append(("ok", self.write_shadow(uid_text, buffer,
                                                         version)))
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__, str(exc)))
        return outcomes

    def entry_versions_many(self, uid_texts):
        # Read plane: exempt -- plain value list, whole-batch failure.
        return [self.entry_versions(uid_text) for uid_text in uid_texts]
