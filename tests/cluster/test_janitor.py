"""The janitor's one rule, against a stub coordinator.

A part is what one top-level action holds in a participant table under
its coordinator's ref.  Each round the janitor probes each coordinator
owning a part older than one round, then commits, aborts, releases or
keeps each part by the answer.
"""

import pytest

from repro.actions import ActionId, AtomicAction, LockMode
from repro.actions.outcomes import COORDINATOR_SERVICE, RefPath
from repro.cluster import Janitor, Node, ServerHost
from repro.core.objects import ObjectClassRegistry
from repro.naming import GroupViewDatabase
from repro.net import FixedLatency, Network
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import Counter

UID = Uid("sys", 1)


class StubCoordinator:
    """Answers probes from a script: ``statuses[serial]``, unknown
    serials as aborted, at ``incarnation``."""

    def __init__(self, incarnation=0, **statuses):
        self.incarnation = incarnation
        self.statuses = {int(serial[1:]): status
                         for serial, status in statuses.items()}
        self.probes = []

    def outcomes(self, serials):
        self.probes.append(list(serials))
        return self.incarnation, [self.statuses.get(serial, "aborted")
                                  for serial in serials]


def wire(serial, ref="c#0"):
    path = RefPath((serial,))
    path.ref = ref
    return path


def make_world(coordinator=None):
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    nodes = {name: Node(s, net, name) for name in ("part", "c")}
    if coordinator is not None:
        nodes["c"].rpc.unregister(COORDINATOR_SERVICE)
        nodes["c"].rpc.register(COORDINATOR_SERVICE, coordinator)
    return s, nodes


def name_node(coordinator=None):
    s, nodes = make_world(coordinator)
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1"], ["t1"])
    db.commit(boot.id.path)
    return s, nodes, db, Janitor(nodes["part"], db)


def server_host(coordinator=None):
    s, nodes = make_world(coordinator)
    registry = ObjectClassRegistry()
    registry.register(Counter)
    host = ServerHost(nodes["part"], registry)
    host.install_state(str(UID), Counter(UID, value=10).serialise(), 1)
    return s, nodes, host, Janitor(nodes["part"], host)


def rounds(s, janitor, count=2):
    """``count`` rounds back to back: a part is asked about in the
    second round that sees it."""
    def body():
        for _ in range(count):
            yield from janitor.run_once()
    s.run_until_settled(s.spawn(body()), until=s.now + 100.0)


def value(host, serial=99):
    result = host.invoke((serial,), str(UID), "get", ())
    host.commit((serial,))
    return result


def test_a_running_action_is_kept():
    stub = StubCoordinator(a5="running")
    s, nodes, db, janitor = name_node(stub)
    db.get_view(wire(5), str(UID))
    rounds(s, janitor, count=3)
    assert stub.probes == [[5], [5]]
    assert db.parts() == {5: ("c#0", False)}


def test_a_part_is_first_asked_about_once_older_than_a_round():
    stub = StubCoordinator(a5="running")
    s, nodes, db, janitor = name_node(stub)
    db.get_view(wire(5), str(UID))
    rounds(s, janitor, count=1)
    assert stub.probes == []


@pytest.mark.parametrize("status,committed", [
    ("committed", True), ("aborted", False), (None, False)],
    ids=["committed", "aborted", "unknown"])
def test_the_outcome_is_applied_to_a_name_node_write(status, committed):
    stub = StubCoordinator(**({"a5": status} if status else {}))
    s, nodes, db, janitor = name_node(stub)
    db.insert(wire(5), str(UID), "h2")
    rounds(s, janitor)
    assert db.parts() == {}
    assert db.server_db.get_server((9,), UID) == (
        ["h1", "h2"] if committed else ["h1"])
    ended = "janitor.commits" if committed else "janitor.aborts"
    assert janitor.metrics.counter_value(ended) == 1


@pytest.mark.parametrize("status,result", [
    ("committed", 11), ("aborted", 10), (None, 10)],
    ids=["committed", "aborted", "unknown"])
def test_the_outcome_is_applied_to_a_server_part(status, result):
    stub = StubCoordinator(**({"a5": status} if status else {}))
    s, nodes, host, janitor = server_host(stub)
    host.invoke((5,), str(UID), "add", (1,), client_node="c#0")
    rounds(s, janitor)
    assert host.parts() == {} and host._roots == {}
    assert value(host) == result


def test_a_later_incarnation_aborts_a_server_part():
    s, nodes, host, janitor = server_host(StubCoordinator(incarnation=1))
    host.invoke((5,), str(UID), "add", (1,), client_node="c#0")
    rounds(s, janitor)
    assert host.parts() == {}
    assert value(host) == 10


def test_a_later_incarnation_releases_a_read_only_name_node_part():
    s, nodes, db, janitor = name_node(StubCoordinator(incarnation=1,
                                                      a5="running"))
    db.get_binding(wire(5), str(UID), wire(5))
    rounds(s, janitor)
    assert db.parts() == {}
    assert not db.server_db.locks.owners() and not db.state_db.locks.owners()
    assert janitor.metrics.counter_value("janitor.aborts") == 1


def test_a_dead_coordinators_name_node_write_is_kept_and_counted_once():
    """Whether it committed is not known here (the told ``commit`` may
    have reached the other replicas): neither outcome is safe."""
    s, nodes, db, janitor = name_node()
    db.insert(wire(5), str(UID), "h2")
    nodes["c"].crash()
    rounds(s, janitor, count=4)
    assert db.parts() == {5: ("c#0", True)}
    assert janitor.metrics.counter_value("janitor.orphaned_writes") == 1
    assert janitor.metrics.counter_value("janitor.aborts") == 0


def test_one_probe_per_coordinator_per_round():
    stub = StubCoordinator(a5="running", a6="running", a7="running")
    s, nodes, db, janitor = name_node(stub)
    db.get_view(wire(5), str(UID))
    db.insert(wire(6), str(UID), "h2")
    db.get_view(wire(7), str(UID))
    rounds(s, janitor, count=3)
    assert stub.probes == [[5, 6, 7], [5, 6, 7]]


def test_owners_with_no_coordinator_ref_are_never_judged():
    """The harness's ``(0,)``, a same-node probe, a bare path: nobody
    to ask, so never probed and never ended."""
    stub = StubCoordinator()
    s, nodes, db, janitor = name_node(stub)
    db.server_db.locks.try_lock(ActionId((0,)), ("sv", UID), LockMode.READ)
    db.state_db.locks.try_lock(ActionId((3,), "lease-read-probe"),
                               ("st", UID), LockMode.READ)
    db.get_view((4,), str(UID))
    rounds(s, janitor, count=3)
    assert stub.probes == []
    assert len(db.server_db.locks.owners() | db.state_db.locks.owners()) == 3


def test_the_real_coordinator_answers_running_then_committed():
    """End to end over a node's own outcome table: a live action's part
    is kept; once it commits with its told ``commit`` lost, the janitor
    hears "committed" and releases the part."""
    s, nodes, db, janitor = name_node()
    outcomes = nodes["c"].outcomes
    action = AtomicAction(node="c")
    outcomes.track(action)
    db.get_view(outcomes.path(action), str(UID))
    rounds(s, janitor)
    assert db.parts() == {action.id.path[0]: ("c#0", False)}
    action.commit_failures.append((None, RuntimeError("lost")))
    action.run_local(action.commit())
    rounds(s, janitor, count=1)
    assert db.parts() == {}
    assert janitor.metrics.counter_value("janitor.commits") == 1
