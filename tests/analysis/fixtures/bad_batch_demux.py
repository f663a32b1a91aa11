"""Known-bad fixture: batched commit-path handlers without demux.

Scanned as a ``src/repro/cluster/...`` module: ``write_shadow_many``
maps the batch through a comprehension (the first bad item raises out
of the handler and the whole RPC -- every batchmate's action -- fails
with it), and ``commit_shadow_many`` has the per-item try but re-raises
from the handler, which is the same whole-batch abort wearing a
seatbelt.  Both are exactly what the batch-demux rule exists to refuse
-- as is ``discard_shadow_many``, which calls the ``demux`` helper on
something other than its batch and maps the batch itself unguarded.
"""


class NaiveBatchStore:
    def write_shadow(self, uid_text, buffer, version):
        return True

    def commit_shadow(self, uid_text):
        return True

    def write_shadow_many(self, items):
        # One refused item aborts the whole batch.
        return [("ok", self.write_shadow(*item)) for item in items]

    def discard_shadow_many(self, items):
        demux(self.commit_shadow, [])  # noqa: F821 - not the batch
        return [("ok", self.commit_shadow(*item)) for item in items]

    def commit_shadow_many(self, items):
        outcomes = []
        for item in items:
            try:
                (uid_text,) = item
                outcomes.append(("ok", self.commit_shadow(uid_text)))
            except Exception:
                raise  # poisons every batchmate
        return outcomes
