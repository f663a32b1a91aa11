"""Known-bad fixture: maintenance traffic on the client plane.

Scanned as if it were one of the maintenance modules
(``src/repro/naming/shard_resync.py``): a resync copy sent over the
gated, fenced client agent queues behind client requests and can
deadlock against recovery gates.  The sync-plane rule must flag the
``rpc.call`` (ident ending ``:client-plane-call``) and the
``client_for`` acquisition (ident ``client_for:client-plane-client``).
"""


class RepairWorker:
    def __init__(self, node, router):
        self.node = node
        self.router = router

    def copy_entry(self, peer, key):
        # Wrong plane: this is the client agent, not the sync NIC.
        entry = yield self.node.rpc.call(peer, "group_view_db", "get", key)
        db = self.router.client_for(key)
        return entry, db
