"""Tests for the server-side orphaned-action janitor."""

import pytest

from tests.conftest import add_work, build_system, get_work


def test_dead_clients_action_aborted_and_locks_freed():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    client2 = system.add_client("c2")

    def crashy(txn):
        yield from txn.invoke(uid, "add", 7)
        system.nodes["c1"].crash()
        yield from txn.invoke(uid, "add", 7)

    client.transaction(crashy)
    system.run(until=1.0)
    # The object is locked by the dead client's action right now.
    blocked = system.run_transaction(client2, add_work(uid, 1))
    assert not blocked.committed
    # The janitor detects the crash, aborts, restores the before-image.
    system.run(until=10.0)
    host = system.nodes["s1"].rpc.service("servers")
    assert host.janitor_aborts >= 1
    after = system.run_transaction(client2, get_work(uid))
    assert after.committed
    assert after.value == 100  # dirty +7 rolled back


def test_live_client_long_action_not_disturbed():
    from repro.sim.process import Timeout
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def slow(txn):
        yield from txn.invoke(uid, "add", 1)
        yield Timeout(8.0)  # far beyond several janitor rounds
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, slow)
    assert result.committed
    assert result.value == 102
    host = system.nodes["s1"].rpc.service("servers")
    assert host.janitor_aborts == 0


def test_tracking_cleared_on_commit():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    system.run_transaction(client, add_work(uid, 1))
    host = system.nodes["s1"].rpc.service("servers")
    assert host._action_clients == {}


@pytest.mark.xfail(strict=True, reason=(
    "ServerHost.prepare returning 'readonly' never untracks "
    "_action_clients[path], and the coordinator sends a read-only "
    "participant no phase 2, so every read-only action leaks one entry "
    "per server host and the 2 s janitor probes the growing list "
    "forever: perf/run.py lookup_read (seed 7) ends with 6,960 leaked "
    "entries and 10,043 client.epoch probes, 26 % of the 38,057 RPCs "
    "its load phase issues; bind_uncached 1,011 leaked / 13,433 probes "
    "(24 % of 56,328).  The fix moves "
    "simulated traffic and every read-heavy BENCH_*.json, so it is its "
    "own correctness change -- see docs/architecture.md, 'Found, not "
    "fixed'."))
def test_readonly_prepare_untracks_action():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    result = system.run_transaction(client, get_work(uid))
    assert result.committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._action_clients == {}


def test_readonly_action_leaves_no_2pc_index_entry():
    """The per-root 2PC index must not share the leak pinned above."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    for _ in range(3):
        assert system.run_transaction(client, get_work(uid)).committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._roots == {}


def test_client_recovering_does_not_resurrect_action():
    """The client node recovers, but the old action's locks were (or will
    be) janitored: the recovered client starts fresh transactions."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def crashy(txn):
        yield from txn.invoke(uid, "add", 7)
        system.nodes["c1"].crash()

    client.transaction(crashy)
    system.run(until=0.5)
    system.nodes["c1"].recover()
    system.run(until=10.0)
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    final = system.run_transaction(client, get_work(uid))
    # Only the committed +1 is visible; the orphaned +7 was rolled back.
    assert final.value == 101
