"""Tests for object servers: locking, before-images, activation."""

import pytest

from repro.actions import LockRefused
from repro.cluster import DistributedSystem, SystemConfig
from repro.cluster.server_host import ObjectServer, ServerHost
from repro.storage import Uid

from tests.conftest import Counter, build_system


def make_object_server(value=10):
    system = DistributedSystem(SystemConfig(seed=1))
    node = system.add_node("n", server=True)
    obj = Counter(Uid("sys", 1), value=value)
    return ObjectServer(node, obj, version=1)


def test_invoke_runs_operation():
    server = make_object_server(5)
    assert server.invoke((1,), "get", ()) == 5
    assert server.invoke((1,), "add", (3,)) == 8


def test_unknown_operation_rejected():
    server = make_object_server()
    with pytest.raises(AttributeError):
        server.invoke((1,), "save_state", ())  # not an @operation


def test_conflicting_actions_refused():
    server = make_object_server()
    server.invoke((1,), "add", (1,))
    with pytest.raises(LockRefused):
        server.invoke((2,), "get", ())


def test_readers_share():
    server = make_object_server()
    assert server.invoke((1,), "get", ()) == 10
    assert server.invoke((2,), "get", ()) == 10


def test_abort_restores_before_image():
    server = make_object_server(10)
    server.invoke((1,), "add", (5,))
    server.invoke((1,), "add", (5,))
    server.abort((1,))
    assert server.invoke((2,), "get", ()) == 10
    assert server.version == 1


def test_commit_bumps_version_and_releases():
    server = make_object_server(10)
    server.invoke((1,), "add", (5,))
    server.commit((1,))
    assert server.version == 2
    assert server.invoke((2,), "get", ()) == 15


def test_readonly_commit_keeps_version():
    server = make_object_server()
    server.invoke((1,), "get", ())
    server.commit((1,))
    assert server.version == 1


def test_nested_abort_undoes_only_the_nested_writes():
    server = make_object_server(10)
    server.invoke((1,), "add", (1,))        # parent writes: 11, image@10
    server.invoke((1, 2), "add", (100,))    # child writes: 111, image@11
    server.abort((1, 2))                    # child abort rewinds to 11
    assert server.invoke((1,), "get", ()) == 11
    server.abort((1,))                      # parent abort rewinds to 10
    assert server.invoke((3,), "get", ()) == 10


def test_parent_abort_after_nested_commit_rewinds_fully():
    server = make_object_server(10)
    server.invoke((1, 2), "add", (100,))    # child writes FIRST: image@10
    # (nested commit = records merge client-side; the server keeps the
    # child's image, which the parent's abort must honour)
    server.invoke((1,), "add", (1,))        # parent writes: image@110
    server.abort((1,))
    assert server.invoke((3,), "get", ()) == 10


def test_top_commit_after_nested_writes_keeps_everything():
    server = make_object_server(10)
    server.invoke((1, 2), "add", (100,))
    server.invoke((1,), "add", (1,))
    server.commit((1,))
    assert server.invoke((3,), "get", ()) == 111
    assert server.version == 2


def test_get_state_install_state_roundtrip():
    server = make_object_server(42)
    buffer, version = server.get_state()
    other = make_object_server(0)
    assert other.install_state(buffer, version + 1)
    assert other.invoke((9,), "get", ()) == 42
    assert other.version == version + 1


def test_install_state_never_goes_backwards():
    """Two clients' checkpoints can arrive out of order: v+2 then v+1
    leaves v+2, and the host says which install it took.  A host with
    no server for the uid (it restarted) is instantiated from the
    buffer, whatever the version."""
    host, (uid_text,) = make_host(servers=1, value=10)
    uid = Uid.parse(uid_text)
    assert host.install_state(uid_text, Counter(uid, value=12).serialise(), 3)
    assert not host.install_state(uid_text, Counter(uid, value=11).serialise(), 2)
    assert not host.install_state(uid_text, Counter(uid, value=12).serialise(), 3)
    assert host.get_state(uid_text) == (Counter(uid, value=12).serialise(), 3)

    del host._servers[uid]  # as after a restart: no server for the uid
    assert host.install_state(uid_text, Counter(uid, value=11).serialise(), 2)
    assert host.get_state(uid_text)[1] == 2


# -- ServerHost: 2PC visits what the action's root touched, by count ------------


def make_host(servers=64, value=10):
    """A ``ServerHost`` with ``servers`` activated counters, no RPC."""
    system = DistributedSystem(SystemConfig(seed=1))
    system.registry.register(Counter)
    node = system.add_node("n", server=True)
    host = ServerHost(node, system.registry)
    uids = [Uid("sys", serial) for serial in range(1, servers + 1)]
    for uid in uids:
        host.install_state(str(uid), Counter(uid, value=value).serialise(), 1)
    return host, [str(uid) for uid in uids]


@pytest.fixture
def server_calls(monkeypatch):
    """Counts ``ObjectServer.commit``/``abort``/``wrote_under`` calls."""
    calls = {"commit": 0, "abort": 0, "wrote_under": 0}
    for name in calls:
        original = getattr(ObjectServer, name)

        def spy(self, path, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, path)
        monkeypatch.setattr(ObjectServer, name, spy)
    return calls


def test_commit_visits_exactly_the_one_server_the_action_touched(server_calls):
    host, uids = make_host(servers=64)
    assert host.invoke((1,), uids[17], "add", (5,)) == 15
    # The vote carries the state of exactly the object written: what
    # commit processing copies to the stores.
    assert host.prepare((1,)) == (
        "ok", {uids[17]: (Counter(Uid.parse(uids[17]), 15).serialise(), 1)})
    assert server_calls["wrote_under"] == 1
    host.commit((1,))
    # commit's own wrote_under is the second one; 63 servers saw nothing.
    assert server_calls == {"commit": 1, "abort": 0, "wrote_under": 2}
    assert host._server(uids[17]).version == 2
    assert host._roots == {}


def test_abort_visits_each_touched_server_once(server_calls):
    host, uids = make_host(servers=64)
    for uid_text in (uids[3], uids[40], uids[3]):
        host.invoke((1,), uid_text, "add", (1,))
    host.abort((1,))
    assert server_calls["abort"] == 2
    assert host.invoke((2,), uids[3], "get", ()) == 10
    assert host.invoke((2,), uids[40], "get", ()) == 10


def test_nested_and_root_aborts_under_one_root_rewind_the_right_image():
    host, uids = make_host(servers=4)
    a, b = uids[0], uids[1]
    host.invoke((1,), a, "add", (1,), client_node="c")         # a: 11
    host.invoke((1, 2), a, "add", (100,), client_node="c")     # a: 111
    host.invoke((1, 2), b, "add", (100,), client_node="c")     # b: 110
    host.abort((1, 2))            # rewinds the child's writes only
    assert host.invoke((1,), a, "get", ()) == 11
    assert host.invoke((1,), b, "get", ()) == 10
    assert set(host._roots) == {1}     # the root is still in flight
    assert host._refs == {1: "c"}
    # A nested commit merges records client-side and sends the host
    # nothing: the child's image stays until the root resolves.
    host.invoke((1, 3), b, "add", (7,), client_node="c")       # b: 17
    host.abort((1,))              # the root's abort undoes all of it
    assert host._roots == {} and host._refs == {}
    host.invoke((4,), a, "add", (1,), client_node="c")         # a: 11
    host.invoke((4, 5), b, "add", (2,), client_node="c")       # b: 12
    host.commit((4,))             # the root's commit keeps the child's too
    assert host._roots == {} and host._refs == {}
    assert host.invoke((6,), a, "get", ()) == 11
    assert host.invoke((6,), b, "get", ()) == 12
    assert [host._server(u).version for u in (a, b)] == [2, 2]


def test_two_roots_interleaved_on_one_server_end_independently():
    """The readers (roots 10 and 20) are younger than the writers, so
    each conflicting writer is refused at once rather than parked."""
    host, uids = make_host(servers=4)
    shared = uids[0]
    host.invoke((10,), shared, "get", (), client_node="c1")
    host.invoke((20,), shared, "get", (), client_node="c2")
    host.invoke((20,), uids[1], "add", (1,), client_node="c2")
    with pytest.raises(LockRefused):
        host.invoke((3,), shared, "add", (1,), client_node="c3")
    host.abort((3,))              # the refused action still aborts here
    host.commit((10,))
    assert set(host._roots) == {20}
    with pytest.raises(LockRefused):  # root 20 still reads it
        host.invoke((4,), shared, "add", (1,))
    host.abort((4,))
    verdict, states = host.prepare((20,))
    assert verdict == "ok" and set(states) == {uids[1]}  # only what it wrote
    host.commit((20,))
    assert host.invoke((50,), shared, "add", (1,)) == 11
    host.commit((50,))
    assert host._roots == {} and host._refs == {}
    assert not any(server.locks.owners() or server._images
                   for server in host._servers.values())


def _park_writer(host, uid_text, root=3):
    """Two older readers hold ``uid_text``; a younger writer's invoke
    parks.  Returns the handler's process and the host's scheduler."""
    scheduler = host._node.scheduler
    host.invoke((1,), uid_text, "get", (), client_node="c1")
    host.invoke((2,), uid_text, "get", (), client_node="c2")
    parked = scheduler.spawn(
        host.invoke((root,), uid_text, "add", (1,), client_node="c3"))
    scheduler.run(until=scheduler.now + 0.01)
    assert not parked.done
    return parked, scheduler


def test_a_younger_writer_parks_behind_older_readers_until_both_end():
    host, uids = make_host(servers=2)
    parked, _ = _park_writer(host, uids[0])
    locks = host._server(uids[0]).locks
    assert locks.parks == 1 and locks.refusals == 0
    host.commit((1,))
    assert not parked.done        # root 2 still reads
    host.prepare((2,))            # read-only: ends root 2 here
    assert parked.result() == 11  # granted, and the add ran
    assert host._refs == {3: "c3"}
    host.commit((3,))
    assert not locks.owners() and not locks.waiters()
    assert host._node.metrics.histogram("lock_wait").count == 1


def test_a_parked_invoke_is_refused_at_half_the_rpc_timeout():
    host, uids = make_host(servers=2)
    parked, scheduler = _park_writer(host, uids[0])
    bound = host._node.rpc.default_timeout / 2
    scheduler.run(until=scheduler.now + bound)
    assert isinstance(parked.exception(), LockRefused)
    locks = host._server(uids[0]).locks
    assert not locks.waiters() and locks.refusals == 1
    host.abort((3,))
    assert host.invoke((1,), uids[0], "get", ()) == 10  # nothing ran


def test_ending_the_parked_action_refuses_it_and_never_grants_it():
    host, uids = make_host(servers=2)
    parked, _ = _park_writer(host, uids[0])
    host.abort((3,))              # e.g. its caller gave up
    assert isinstance(parked.exception(), LockRefused)
    host.commit((1,))
    host.commit((2,))
    locks = host._server(uids[0]).locks
    assert not locks.owners() and not locks.waiters()
    assert host._roots == {} and host._refs == {}


def test_a_crash_ends_a_parked_invoke_with_the_node():
    """The wait is a process of the node: the crash kills it (and the
    dark node sends no reply), like any other process it runs."""
    from repro.sim.errors import ProcessKilled

    host, uids = make_host(servers=2)
    parked, _ = _park_writer(host, uids[0])
    host._node.crash()
    assert isinstance(parked.exception(), ProcessKilled)


def test_the_multicast_path_never_parks():
    """Group members must apply operations in delivery order, so a
    conflicting group invocation is refused, however young."""
    from repro.net.multicast import MulticastDelivery

    host, uids = make_host(servers=2)
    host.invoke((1,), uids[0], "get", (), client_node="c1")
    replies = []
    host._node.nic.send = lambda target, kind, reply: replies.append(reply)
    host._on_group_invocation(MulticastDelivery("g", "c3", {
        "request_id": 9, "reply_to": "c3", "action_path": (3,),
        "uid": uids[0], "op": "add", "args": (1,)}, 1))
    assert replies[0]["ok"] is False
    assert replies[0]["error_type"] == "LockRefused"
    assert not host._server(uids[0]).locks.waiters()


def test_a_resent_prepare_answers_with_the_same_vote_and_state():
    """The reply to a prepare can be lost; the re-sent one must hand
    over the same state, or the stores would be sent something else."""
    host, uids = make_host(servers=4)
    host.invoke((1,), uids[0], "add", (5,))
    host.invoke((1,), uids[1], "get", ())
    first = host.prepare((1,))
    assert first == host.prepare((1,))
    assert first[0] == "ok" and set(first[1]) == {uids[0]}
    host.invoke((2,), uids[2], "get", ())
    assert host.prepare((2,)) == host.prepare((2,)) == ("readonly", {})


def _end_by_readonly_prepare(host):
    assert host.prepare((1,)) == ("readonly", {})


@pytest.mark.parametrize("end", [
    _end_by_readonly_prepare,
    lambda host: host.commit((1,)),
    lambda host: host.abort((1,)),
], ids=["readonly-prepare", "commit", "abort"])
def test_index_is_empty_once_the_host_is_quiescent(end):
    host, uids = make_host(servers=4)
    host.invoke((1,), uids[0], "get", ())
    host.invoke((1, 2), uids[1], "get", ())
    assert set(host._roots) == {1}
    end(host)
    assert host._roots == {}
    assert not any(server.locks.owners() or server._images
                   for server in host._servers.values())


def test_janitor_abort_and_crash_recover_leave_the_index_empty():
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def crashy(txn):
        yield from txn.invoke(uid, "add", 7)
        system.nodes["c1"].crash()

    client.transaction(crashy)
    system.run(until=1.0)
    host = system.nodes["s1"].rpc.service("servers")
    assert len(host._roots) == 1  # the dead client's action, still locked
    system.run(until=10.0)
    # One at the server host; one the name node's, releasing the dead
    # client's read locks on the entry.
    assert system.metrics.counter_value("janitor.aborts") == 1
    assert system.metrics.counter_value(
        "shard.namenode.janitor.aborts") == 1
    assert host._roots == {} and host._refs == {}

    client2 = system.add_client("c2")
    hung = client2.transaction(crashy_on(system, "s1", uid))
    system.run(until=11.0)
    assert hung.done
    system.nodes["s1"].recover()
    fresh = system.nodes["s1"].rpc.service("servers")
    assert fresh is not host and fresh._roots == {}


def crashy_on(system, server_host, uid):
    """A transaction body that writes, then sees its server host die."""
    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes[server_host].crash()
        yield from txn.invoke(uid, "add", 1)
    return work
