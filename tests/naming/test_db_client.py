"""Tests for the per-node connection: enlistment, stray aborts, and
remote errors mapped back, through ``call_enlisted``/``call_reached``."""

import pytest

from repro.actions import ActionStatus, AtomicAction, LockRefused, PromotionRefused
from repro.actions.records import ToldParticipantRecord
from repro.naming import GroupViewDatabase, NotQuiescent, UnknownObject
from repro.naming.db_client import GroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import lock_holders, serve_outcomes

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
    client_agent = serve_outcomes(RpcAgent(s, nic_c,
                                           demux=MessageDemux(nic_c)))
    return s, net, db, GroupViewDbClient(client_agent, "db")


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def test_error_types_mapped_back():
    s, net, db, client = make_world()
    for call in (client.call_enlisted, client.call_reached):
        action = AtomicAction(node="client")

        def body():
            return (yield from call(action, "get_view", "sys:99"))

        with pytest.raises(UnknownObject):
            run(s, body())
        # The shard answered, so it may hold the action's earlier locks:
        # a mapped error enlists it either way.
        assert client.is_enlisted(action)


def test_lock_refused_mapped_back():
    s, net, db, client = make_world()
    holder = AtomicAction()
    db.insert(holder.id.path, str(UID), "h3")  # write lock held locally
    action = AtomicAction(node="client")

    def body():
        return (yield from client.call_enlisted(
            action, "get_binding", str(UID), action.id.path))

    with pytest.raises(LockRefused):
        run(s, body())


def test_not_quiescent_mapped_back():
    s, net, db, client = make_world()
    user = AtomicAction()
    db.increment(user.id.path, "cn", str(UID), ["h1"])
    db.commit(user.id.path)
    action = AtomicAction(node="client")

    def body():
        yield from client.call_reached(action, "insert", str(UID), "h1")

    with pytest.raises(NotQuiescent):
        run(s, body())


def test_enlists_participant_once_per_top_level_action():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.call_enlisted(action, "get_binding", str(UID),
                                        action.id.path)
        yield from client.call_reached(action, "get_view", str(UID))
        nested = AtomicAction(node="client", parent=action)
        yield from client.call_enlisted(nested, "get_view", str(UID))
        yield from nested.commit()

    run(s, body())
    participants = [r for r in action.records
                    if isinstance(r, ToldParticipantRecord)]
    assert len(participants) == 1


def test_full_transactional_cycle_over_rpc():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.call_enlisted(action, "exclude",
                                        [(str(UID), ["t2"])])
        yield from client.call_enlisted(action, "include", str(UID), "t3")
        return (yield from action.commit())

    status = run(s, body())
    assert status is ActionStatus.COMMITTED
    probe = AtomicAction()
    assert db.get_view(probe.id.path, str(UID)) == ["t1", "t3"]


def test_abort_over_rpc_rolls_back():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.call_enlisted(action, "remove", str(UID), "h2")
        return (yield from action.abort())

    run(s, body())
    probe = AtomicAction()
    assert db.server_db.get_server(probe.id.path, UID) == ["h1", "h2"]


def test_define_object_via_client():
    s, net, db, client = make_world()
    action = AtomicAction(node="client")
    new_uid = Uid("sys", 50)

    def body():
        yield from client.call_enlisted(action, "define_object",
                                        str(new_uid), ["h9"], ["t9"])
        return (yield from action.commit())

    run(s, body())
    probe = AtomicAction()
    assert db.server_db.get_server(probe.id.path, new_uid) == ["h9"]


# -- an acknowledged write is the vote ---------------------------------------------


def naming_methods(rpc_log):
    return [method for _who, _target, _service, method, _at in rpc_log]


def participant(action):
    (record,) = [r for r in action.records
                 if isinstance(r, ToldParticipantRecord)]
    return record


def test_an_acknowledged_write_is_the_vote(rpc_log):
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.call_enlisted(action, "increment", "cn",
                                        str(UID), ["h1"])
        return (yield from action.commit())

    assert run(s, body()) is ActionStatus.COMMITTED
    assert naming_methods(rpc_log) == ["increment", "commit"]
    assert not db.is_quiescent(str(UID))  # the Increment is permanent
    assert not db.server_db.locks.is_locked(("sv", UID))


def test_a_participant_only_read_at_is_told_the_outcome_not_polled(rpc_log):
    """Its ``commit`` is its lock release -- including a ``for_update``
    read that no write followed."""
    s, net, db, client = make_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.call_enlisted(action, "get_view", str(UID))
        yield from client.call_reached(action, "get_server_with_uses",
                                       str(UID), True)
        return (yield from action.commit())

    assert run(s, body()) is ActionStatus.COMMITTED
    assert naming_methods(rpc_log) == ["get_view", "get_server_with_uses",
                                       "commit"]
    assert not db.server_db.locks.is_locked(("sv", UID))
    assert not db.state_db.locks.is_locked(("st", UID))


def test_a_refused_write_marks_nothing_and_the_abort_reaches_the_db(rpc_log):
    s, net, db, client = make_world()
    holder = AtomicAction()
    db.include(holder.id.path, str(UID), "t9")  # St write-locked elsewhere
    doomed, stubborn = (AtomicAction(node="client"),
                        AtomicAction(node="client"))

    def refused(action):
        yield from client.call_enlisted(  # Sv read lock
            action, "get_server_with_uses", str(UID), False)
        with pytest.raises(LockRefused):
            yield from client.call_enlisted(action, "exclude",
                                            [(str(UID), ["t2"])])

    def abort_it():
        yield from refused(doomed)
        yield from doomed.abort()

    run(s, abort_it())
    assert naming_methods(rpc_log)[-1] == "abort"
    assert not db.server_db.locks.is_locked(("sv", UID))

    # Committing regardless: the db is still not polled, and the
    # ``commit`` releases what the action read before the refusal.
    del rpc_log[:]

    def commit_it():
        yield from refused(stubborn)
        return (yield from stubborn.commit())

    assert run(s, commit_it()) is ActionStatus.COMMITTED
    assert naming_methods(rpc_log)[-1] == "commit"
    assert "prepare" not in naming_methods(rpc_log)
    assert not db.server_db.locks.is_locked(("sv", UID))


def test_the_enlistment_table_forgets_a_root_once_it_resolves():
    s, net, db, client = make_world()
    writer, reader, quitter = (AtomicAction(node="client") for _ in range(3))
    seen = {}

    def body():
        yield from client.call_enlisted(writer, "insert", str(UID), "h3")
        yield from client.call_reached(reader, "get_view", str(UID))
        yield from client.call_enlisted(quitter, "get_view", str(UID))
        seen["live"] = [client.is_enlisted(a)
                        for a in (writer, reader, quitter)]
        yield from writer.commit()    # phase 2 resolves it
        yield from reader.commit()    # a reader's phase 2 is its release
        yield from quitter.abort()

    run(s, body())
    assert seen["live"] == [True, True, True]
    assert not any(client.is_enlisted(a) for a in (writer, reader, quitter))
    assert client._participants == {}


def test_abort_stray_reaches_the_db_for_a_live_root(rpc_log):
    s, net, db, client = make_world()
    action = AtomicAction(node="client")
    stray = AtomicAction(parent=action)
    db.increment(stray.id.path, "cn", str(UID), ["h1"])  # never enlisted
    assert not client.is_enlisted(stray)
    client.abort_stray(stray)
    s.run(until=1.0)
    assert naming_methods(rpc_log) == ["abort"]
    assert not db.server_db._undo
    assert not db.server_db.locks.is_locked(("sv", UID))


def test_the_one_lookup_enlists_the_db_for_both_roots(rpc_log):
    """``first`` holds the ``Sv`` write lock, the client action the
    ``St`` read lock: each root needs its own participant, or the
    client action's lock is never released."""
    s, net, db, client = make_world()
    action, first = AtomicAction(node="client"), AtomicAction(node="client")

    def bind():
        snapshot, view = yield from client.call_enlisted(
            first, "get_binding_with_uses", str(UID), action.id.path,
            view_action=action)
        yield from client.call_enlisted(first, "increment", "cn", str(UID),
                                        ["h1"])
        yield from first.commit()
        return snapshot, view

    snapshot, view = run(s, bind())
    assert snapshot.hosts == ("h1", "h2") and view == ["t1", "t2"]
    assert naming_methods(rpc_log) == ["get_binding_with_uses", "increment",
                                       "commit"]
    assert not db.server_db.locks.is_locked(("sv", UID))
    assert [owner.path for owner, _ in
            lock_holders(db.state_db.locks, ("st", UID))] == [action.id.path]

    run(s, action.commit())
    assert naming_methods(rpc_log)[-2:] == ["commit", "commit"]  # no prepare
    assert not db.state_db.locks.is_locked(("st", UID))
    assert client._participants == {}


def test_an_unanswered_lookup_enlists_only_the_bind_action(rpc_log):
    """The db may be dark or merely slow.  ``first`` was enlisted before
    the call, so its abort follows any stray; the client action gets the
    presumed abort, fired and not awaited -- it pays no timeout of its
    own for a db it was never seen to reach.  The walk over a one-node
    route sends that abort, once: the connection itself sends none."""
    from repro.naming.replica_io import ReplicaIO
    from repro.naming.shard_router import ShardRouter
    from repro.net.errors import RpcTimeout

    s, net, db, client = make_world()
    io = ReplicaIO(client._rpc, ShardRouter(["db"]), 1)
    client = io.client_for("db")
    net._interfaces["db"].up = False
    action, first = AtomicAction(node="client"), AtomicAction(node="client")

    def bind():
        with pytest.raises(RpcTimeout):
            yield from io.read(first, UID, "get_binding_with_uses", str(UID),
                               action.id.path, view_action=action)
        return s.now

    failed_at = run(s, bind())
    assert client.is_enlisted(first) and not client.is_enlisted(action)
    assert naming_methods(rpc_log) == ["get_binding_with_uses", "abort"]
    run(s, action.abort())
    assert s.now == failed_at  # nothing to wait for
