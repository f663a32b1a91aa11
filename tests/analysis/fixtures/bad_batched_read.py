"""Known-bad fixture: a batched activation read without demux.

Scanned as a ``src/repro/cluster/...`` module: ``read_many`` maps the
batch through a comprehension, so the first uid the store lacks raises
out of the handler and fails the whole RPC.  Every batchmate would
then give up on this store and load from its next ``St`` host, although
only one of them had to.
"""


class NaiveReadStore:
    def __init__(self):
        self._states = {}

    def read(self, uid_text):
        return self._states[uid_text]

    def read_many(self, items):
        # One missing uid fails every batchmate's load.
        return [("ok", self.read(*item)) for item in items]
