"""Known-good fixture: the approved shapes for every rule.

Each function below is the *correct* counterpart of one known-bad
fixture; the linter must report nothing here.
"""

SERVICE = "group_view_db"


def purge_with_finally(db, node_name, client):
    # try/finally termination: full protection, no finding.
    action = AtomicAction(node=node_name)
    committed = False
    try:
        yield from db.purge_client(action, client)
        yield from action.commit()
        committed = True
    finally:
        if not committed:
            yield from action.abort()


def bind_with_broad_handler(db, client_node, uid):
    # except BaseException routing through the abort_on_failure helper.
    first = AtomicAction(node=client_node)
    try:
        snapshot = yield from db.get_server_with_uses(first, uid)
    except BaseException:
        yield from abort_on_failure(first)
        raise
    yield from first.commit()
    return snapshot


def nested_lookup(db, client_node, parent_action, uid):
    # Nested action: the parent terminates it; out of scope for the rule.
    nested = AtomicAction(node=client_node, parent=parent_action)
    sv, _st = yield from db.get_binding(nested, uid, parent_action)
    yield from nested.commit()
    return sv


def read_inside_one_dispatch(locks, probe, key, table):
    # Lock taken and released with no wire suspension in between.
    locks.try_lock(probe.id, key, WRITE)
    value = table.get(key)
    locks.release_all(probe.id)
    return value


def release_before_wire(locks, rpc, probe, key, peer):
    # The lock dies before the RPC suspension: legal.
    locks.try_lock(probe.id, key, WRITE)
    locks.release_all(probe.id)
    version = yield rpc.call(peer, "store", "version_of", key)
    return version


class FencedInstall:
    def __init__(self, node, db, fence):
        self.node = node
        self.db = db
        self.fence = fence

    def reopen(self):
        # fence= armed: the fence-required rule is satisfied.
        self.node.rpc.register(SERVICE, self.db, fence=self.fence)

    def reopen_side_door(self):
        # The sync side door is unfenced by design (resync must reach
        # hosts the live ring does not own).
        self.node.sync_rpc.register("group_view_db_sync", self.db)
