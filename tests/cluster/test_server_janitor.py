"""The janitor at a server host: orphaned actions' locks and images."""

from repro.cluster import Janitor
from repro.sim.process import Timeout
from repro.workload.audit import lock_leftovers
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
    assert system.metrics.counter_value("janitor.aborts") >= 1
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
    assert system.metrics.counter_value("janitor.aborts") == 0


def test_tracking_cleared_on_commit():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    system.run_transaction(client, add_work(uid, 1))
    host = system.nodes["s1"].rpc.service("servers")
    assert host._refs == {} and host.parts() == {}


def test_readonly_prepare_untracks_action():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    result = system.run_transaction(client, get_work(uid))
    assert result.committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._refs == {}


def test_readonly_clients_are_never_probed():
    """A read-only vote is the action's last word at the host: nothing
    of it is left for the janitor to ask the client about, however many
    there were and however long the client lives."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    for _ in range(50):
        assert system.run_transaction(client, get_work(uid)).committed
    host = system.nodes["s1"].rpc.service("servers")
    assert host._refs == {}
    served = system.nodes["c1"].rpc.calls_served
    system.run(until=system.scheduler.now + 3 * Janitor.INTERVAL)
    assert system.nodes["c1"].rpc.calls_served == served
    assert host._refs == {}
    assert system.metrics.counter_value("janitor.aborts") == 0


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


def _count_probes(system, probes, prober="s1"):
    """Append to ``probes`` each coordinator probe ``prober`` sends."""
    rpc = system.nodes[prober].rpc
    call = rpc.call

    def counting(target, service, method, *args, **kwargs):
        if method == "outcomes":
            probes.append((system.scheduler.now, target, list(args[0])))
        return call(target, service, method, *args, **kwargs)

    rpc.call = counting


def _writers_in_flight(k):
    """One client holding ``k`` write actions open on host ``s1``, each
    on its own counter; returns the system, the host and a list that
    gains an item per probe ``s1``'s janitor sends."""
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
    assert len(host._refs) == k
    probes = []
    _count_probes(system, probes)
    return system, host, probes


def test_one_probe_per_client_per_round_however_many_actions():
    """A part is first asked about once it is older than one round."""
    system, host, probes = _writers_in_flight(4)
    for round_no in (0, 1, 2, 3):
        system.run(until=(round_no + 1) * Janitor.INTERVAL + 1.0)
        assert len(probes) == round_no
    assert all(target == "c1" and len(serials) == 4
               for _, target, serials in probes)
    assert system.metrics.counter_value("janitor.aborts") == 0
    assert len(host._refs) == 4


def test_restarted_client_loses_every_action_in_the_one_round():
    system, host, probes = _writers_in_flight(4)
    system.nodes["c1"].crash()
    system.nodes["c1"].recover()
    system.run(until=2 * Janitor.INTERVAL + 1.0)
    assert len(probes) == 1  # answered, from a later incarnation
    assert host._refs == {} and host._roots == {}
    # The name node's janitor released the dead actions' read locks too.
    assert lock_leftovers(system) == {}
