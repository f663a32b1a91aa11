"""Known-good fixture: a request that parks at the lock table.

A handler whose lock request parks returns a generator that waits on
the lock future, then runs the operation and returns.  Waiting for the
grant is not a wire suspension: no lock is held yet, the wait is
bounded, and the owner's abort refuses it.  Neither lock-across-wire
nor action-leak may flag it.
"""


def get_for_update(locks, owner, key, clock, patience, read):
    parked = locks.lock(owner, key, INCREMENT, clock, patience)
    if parked is None:
        return read()
    return when_granted(parked, read)


def when_granted(parked, read):
    yield parked
    return read()
