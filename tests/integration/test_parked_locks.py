"""Parked lock requests never outlive their caller.

A binder's update-intent read parks at the name node behind an older
holder.  Here the caller's own RPC gives up first (its node runs a
shorter timeout than the name node's bound), so the binder aborts
while its request is still parked.  The abort must refuse that
request: were it granted later, the INCREMENT lock would belong to an
action that no longer exists, and nothing would ever release it.
"""

import dataclasses

from repro.actions import AtomicAction
from repro.workload.scenario import execute
from repro.workload.scenarios import SCENARIOS

from repro.workload.audit import lock_leftovers

from tests.conftest import add_work, build_system


def test_a_call_that_times_out_while_parked_leaves_nothing_behind():
    system, client, uid = build_system(scheme="independent",
                                       rpc_timeout=1.0)
    holder = AtomicAction()  # older than the binder
    system.db.server_db.get_server_with_uses(holder.id.path, uid,
                                             for_update=True)
    client.node.rpc.default_timeout = 0.1  # below the 0.5 s bound

    result = system.run_transaction(client, add_work(uid))
    assert not result.committed and result.reason == "bind_failed:" \
        f"database unavailable while binding {uid}"
    locks = system.db.server_db.locks
    assert locks.parks == 1
    system.run(until=system.scheduler.now + 0.2)  # the strays land
    assert not locks.waiters()  # refused by the binder's abort

    system.db.abort(holder.id.path)
    system.run(until=system.scheduler.now + 1.0)
    assert lock_leftovers(system) == {}
    assert system.db_sv(uid) == ["s1", "s2", "s3"]
    assert system.db.server_db.get_server_with_uses(
        (0,), uid).all_uses_empty
    system._release_probe_locks()


def test_fig7_contention_settles_with_no_lock_held_or_parked():
    """The figure-7 contention row: binders park for each other, and
    once the load has ended every lock table is empty."""
    scenario = SCENARIOS["paper_binding_contention"]
    runs = []
    row = execute(dataclasses.replace(
        scenario, counters=lambda run: runs.append(run) or scenario.counters(run)))
    assert row["lock_parks"] > 0 and row["commit_rate"] == 1.0
    system = runs[0].system
    system.run(until=system.scheduler.now + 5.0)
    assert lock_leftovers(system) == {}
