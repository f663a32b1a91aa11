"""Known-good fixture: maintenance traffic on the sync plane.

Scanned as one of the maintenance modules: every wire hop rides the
dedicated ``sync_rpc`` agent, addressed through ``sync_target``, or goes
through the shared engine's sync-plane calls, so the sync-plane rule
reports nothing.
"""


class RepairWorker:
    def __init__(self, node, io):
        self.node = node
        self.io = io

    def copy_entry(self, peer, key):
        entry = yield self.node.sync_rpc.call(self.io.sync_target(peer),
                                              "group_view_db_sync",
                                              "get", key)
        probes, _dark = yield from self.io.probe_many({peer: [key]})
        return entry, probes
