"""Known-bad fixture: a parked probe that goes to the wire once granted.

The probe's lock is granted after a park, and the handler then asks a
peer before releasing it: the granted lock is held across the RPC
suspension, exactly PR 5's leak.  lock-across-wire must flag it.
"""


def probe_after_park(locks, rpc, probe, key, clock, patience, peer):
    parked = locks.lock(probe.id, key, WRITE, clock, patience)
    if parked is not None:
        yield parked
    remote_version = yield rpc.call(peer, "store", "version_of", key)
    locks.release_all(probe.id)
    return remote_version
