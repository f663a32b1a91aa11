"""Tests for the client-side database adapter."""

import pytest

from repro.actions import ActionStatus, AtomicAction, LockRefused, PromotionRefused
from repro.actions.records import RemoteParticipantRecord
from repro.naming import GroupViewDatabase, NotQuiescent, UnknownObject
from repro.naming.db_client import GroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)


def make_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    nic_db = net.attach("db")
    db_agent = RpcAgent(s, nic_db, demux=MessageDemux(nic_db))
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1", "t2"])
    db.commit(boot.id.path)
    db_agent.register("group_view_db", db)
    nic_c = net.attach("client")
    client_agent = RpcAgent(s, nic_c, demux=MessageDemux(nic_c))
    return s, net, db, GroupViewDbClient(client_agent, "db")


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def test_error_types_mapped_back():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        return (yield from client.get_view(action, Uid("sys", 99)))

    with pytest.raises(UnknownObject):
        run(s, body())


def test_lock_refused_mapped_back():
    s, net, db, client = make_world()
    holder = AtomicAction()
    db.insert(holder.id.path, str(UID), "h3")  # write lock held locally
    action = AtomicAction(node="client")

    def body():
        return (yield from client.get_binding(action, UID, action))

    with pytest.raises(LockRefused):
        run(s, body())


def test_not_quiescent_mapped_back():
    s, net, db, client = make_world()
    user = AtomicAction()
    db.increment(user.id.path, "cn", str(UID), ["h1"])
    db.commit(user.id.path)
    action = AtomicAction(node="client")

    def body():
        yield from client.insert(action, UID, "h1")

    with pytest.raises(NotQuiescent):
        run(s, body())


def test_enlists_participant_once_per_top_level_action():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.get_binding(action, UID, action)
        yield from client.get_view(action, UID)
        nested = AtomicAction(node="client", parent=action)
        yield from client.get_view(nested, UID)
        yield from nested.commit()

    run(s, body())
    participants = [r for r in action.records
                    if isinstance(r, RemoteParticipantRecord)]
    assert len(participants) == 1


def test_full_transactional_cycle_over_rpc():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.exclude(action, [(UID, ["t2"])])
        yield from client.include(action, UID, "t3")
        return (yield from action.commit())

    status = run(s, body())
    assert status is ActionStatus.COMMITTED
    probe = AtomicAction()
    assert db.get_view(probe.id.path, str(UID)) == ["t1", "t3"]


def test_abort_over_rpc_rolls_back():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.remove(action, UID, "h2")
        return (yield from action.abort())

    run(s, body())
    probe = AtomicAction()
    assert db.server_db.get_server(probe.id.path, UID) == ["h1", "h2"]


def test_ping():
    s, net, db, client = make_world()

    def body():
        return (yield from client.ping())

    assert run(s, body()) is True
    net.interface("db").up = False

    def body2():
        return (yield from client.ping())

    assert run(s, body2()) is False


def test_define_object_via_client():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")
    new_uid = Uid("sys", 50)

    def body():
        yield from client.define_object(action, new_uid, ["h9"], ["t9"])
        return (yield from action.commit())

    run(s, body())
    probe = AtomicAction()
    assert db.server_db.get_server(probe.id.path, new_uid) == ["h9"]
