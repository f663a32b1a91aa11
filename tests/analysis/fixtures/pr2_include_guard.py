"""Known-bad fixture: PR 2's ``_include_guard`` probe-lock leak.

The periodic St-membership guard probed the group view with a fresh
top-level action per object but had no exception path at all: a raised
``get_view`` (or a kill of the guard process) left the probe's read
locks held on the shard, blocking writers on the entry.  The
action-leak rule must flag the loop body (ident ``action:unguarded``).
"""


def include_guard(store, db, node_name):
    while True:
        yield Timeout(2.0)
        for uid in store.uids():
            action = AtomicAction(node=node_name)
            view = yield from db.get_view(action, uid)
            yield from action.commit()
            if node_name not in view:
                yield from reinclude(db, uid, node_name)
