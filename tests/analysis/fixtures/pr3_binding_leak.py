"""Known-bad fixture: PR 3's binding-scheme leak, distilled.

The figure-7 scheme's private top-level database action was aborted
only under ``except Exception`` -- correct for RPC failures, but a
non-``Exception`` failure (a killed client process, KeyboardInterrupt)
skipped the handler and leaked the action's write locks on every
replica it had already reached.  The action-leak rule must flag the
narrow handler (ident ``first:narrow-abort``).
"""


def bind_with_use_lists(db, client_node, uid, binder):
    first = AtomicAction(node=client_node)
    try:
        snapshot = yield from db.get_server_with_uses(first, uid,
                                                      for_update=True)
        bound = yield from attempt_binds(first, uid, binder, snapshot.hosts)
        yield from db.increment(first, client_node, uid, bound)
    except Exception:
        # Too narrow: a BaseException-only failure leaks ``first``.
        yield from first.abort()
        raise
    yield from first.commit()
    return bound
