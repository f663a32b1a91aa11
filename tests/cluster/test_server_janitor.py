"""Tests for the server-side orphaned-action janitor."""

from repro.sim.process import Timeout
from tests.conftest import Counter, add_work, build_system, get_work


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


def test_readonly_prepare_untracks_action():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    result = system.run_transaction(client, get_work(uid))
    assert result.committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._action_clients == {}


def test_readonly_clients_are_never_probed():
    """A read-only vote is the action's last word at the host: nothing
    of it is left for the janitor to ask the client about, however many
    there were and however long the client lives."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    for _ in range(50):
        assert system.run_transaction(client, get_work(uid)).committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._action_clients == {}
    served = system.nodes["c1"].rpc.calls_served
    system.run(until=system.scheduler.now + 3 * host.janitor_interval)
    assert system.nodes["c1"].rpc.calls_served == served
    assert host._action_clients == {} and host.janitor_aborts == 0


def test_readonly_action_leaves_no_2pc_index_entry():
    """Nor does the per-root 2PC index keep anything of it."""
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


def _count_probes(system, probes):
    """Append to ``probes`` on each ``client.epoch`` call ``c1`` answers."""
    service = system.nodes["c1"].rpc.service("client")
    answer = service.epoch
    service.epoch = lambda: probes.append(system.scheduler.now) or answer()


def _writers_in_flight(k):
    """One client holding ``k`` write actions open on host ``s1``, each
    on its own counter; returns the system, the host and a list that
    gains an item per ``client.epoch`` probe ``c1`` answers."""
    system, client, first = build_system(sv=("s1",), st=("t1",))
    uids = [first] + [
        system.create_object(Counter(system.new_uid(), value=100),
                             sv_hosts=["s1"], st_hosts=["t1"])
        for _ in range(k - 1)]

    def hold(uid):
        def work(txn):
            yield from txn.invoke(uid, "add", 7)
            yield Timeout(60.0)
        return work

    for uid in uids:
        client.transaction(hold(uid))
    system.run(until=1.0)
    host = system.nodes["s1"].rpc.service("servers")
    assert len(host._action_clients) == k
    probes = []
    _count_probes(system, probes)
    return system, host, probes


def test_one_probe_per_client_per_round_however_many_actions():
    system, host, probes = _writers_in_flight(4)
    for round_no in (1, 2, 3):
        system.run(until=round_no * host.janitor_interval + 1.0)
        assert len(probes) == round_no
    assert host.janitor_aborts == 0 and len(host._action_clients) == 4


def test_restarted_client_loses_every_action_in_the_one_round():
    system, host, probes = _writers_in_flight(4)
    system.nodes["c1"].crash()
    system.nodes["c1"].recover()
    _count_probes(system, probes)  # the recovered node's fresh service
    system.run(until=host.janitor_interval + 1.0)
    assert len(probes) == 1  # answered, from a later boot epoch
    assert host.janitor_aborts == 4
    assert host._action_clients == {} and host._roots == {}
