"""Known-good fixture: a batched activation read done right.

``read_many`` hands its items to the ``demux`` helper, so a uid the
store lacks fails its own slot and only that activation moves on to
the next ``St`` host.  ``read_entry_versioned_many`` is a read-plane
sweep (a plain value list that may fail whole-batch by design) and
stays out of the rule's scope.
"""


def demux(handler, items):
    outcomes = []
    for item in items:
        try:
            outcomes.append(("ok", handler(*item)))
        except Exception as exc:
            outcomes.append(("err", type(exc).__name__, str(exc)))
    return outcomes


class BatchedReadStore:
    def __init__(self):
        self._states = {}

    def read(self, uid_text):
        return self._states[uid_text]

    def read_entry_versioned(self, uid_text):
        return (uid_text, 1)

    def read_many(self, items):
        return demux(self.read, items)

    def read_entry_versioned_many(self, uid_texts):
        # Read plane: exempt -- plain value list, whole-batch failure.
        return [self.read_entry_versioned(uid_text) for uid_text in uid_texts]
