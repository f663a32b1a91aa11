"""Known-bad fixture: PR 1's cleanup-daemon bypass, distilled.

The original janitor purged a dead client's naming-db entries with a
top-level action but never terminated it when ``purge_client`` raised:
the action's write locks on the entry stayed held until another cleaner
happened to purge the *cleaner* as dead.  The action-leak rule must
flag the unguarded region (ident ``action:unguarded``).
"""


def purge_dead_client(db, node_name, client):
    action = AtomicAction(node=node_name)
    # No try/finally, no handler: any raise below abandons ``action``.
    yield from db.add_record(action)
    purged = yield from db.purge_client(action, client)
    yield from action.commit()
    return purged
