"""Regression: non-``Exception`` failures during bind/cleanup leak nothing.

The historical bug (normalized repo-wide by the ``action-leak`` rule):
binding schemes and the cleanup daemon guarded their private top-level
actions with ``except Exception``, so a BaseException-class failure --
a killed client process above all -- skipped the abort and left the
action's write locks held on the naming database forever.  These tests
inject exactly such a failure and assert the action terminates and the
lock tables come back empty.
"""

import pytest

from repro.actions import AtomicAction
from repro.actions.action import abort_on_failure
from repro.naming import GroupViewDatabase
from repro.naming.binding import IndependentTopLevelBinding
from repro.naming.shard_router import ShardRouter
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Future, MetricsRegistry, Scheduler
from repro.storage import Uid

from tests.conftest import serve_outcomes

UID = Uid("sys", 1)


class Killed(BaseException):
    """Stands in for a process kill: deliberately NOT an Exception."""


class World:
    def __init__(self):
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, FixedLatency(0.01))
        nic_db = self.network.attach("db")
        self.db_agent = RpcAgent(self.scheduler, nic_db,
                                 demux=MessageDemux(nic_db))
        self.db = GroupViewDatabase()
        self.db_agent.register("group_view_db", self.db)
        boot = AtomicAction()
        self.db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
        self.db.commit(boot.id.path)

        nic_client = self.network.attach("client")
        client_agent = serve_outcomes(RpcAgent(
            self.scheduler, nic_client, demux=MessageDemux(nic_client)))
        self.db_client = ShardedGroupViewDbClient(client_agent,
                                                  ShardRouter(["db"]))
        self.scheme = IndependentTopLevelBinding(
            self.db_client, "client", metrics=MetricsRegistry())

    def run(self, body):
        return self.scheduler.run_until_settled(
            self.scheduler.spawn(body), until=100.0)

    def assert_no_leaked_locks(self):
        assert self.db.server_db.locks.owners() == set()
        assert self.db.state_db.locks.owners() == set()


def test_killed_binder_releases_all_database_locks():
    # The figure-7 scheme's first action holds a WRITE lock on the
    # entry (for_update=True) when the binder raises the kill.
    world = World()

    def killing_binder(host, uid, action, st_hosts):
        raise Killed("client process killed mid-bind")

    def body():
        action = AtomicAction(node="client")
        try:
            yield from world.scheme.bind(action, UID, killing_binder)
        except BaseException:
            # The client runtime's half: the scheme read ``St`` under
            # the client action, which its owner terminates.
            yield from abort_on_failure(action)
            raise

    with pytest.raises(Killed):
        world.run(body())
    world.assert_no_leaked_locks()


def test_killed_unbind_releases_all_database_locks():
    world = World()

    def ok_binder(host, uid, action, st_hosts):
        bound = Future()
        bound.resolve(True)
        return bound

    def bind_body():
        action = AtomicAction(node="client")
        outcome = yield from world.scheme.bind(action, UID, ok_binder)
        yield from action.commit()
        return outcome

    outcome = world.run(bind_body())
    world.assert_no_leaked_locks()

    # Sabotage the decrement so the unbind-side action fails with a
    # non-Exception after it has taken its write lock.
    original = world.db_client.decrement

    def killing_decrement(action, client_node, uid, hosts):
        yield from world.db_client.io.read(  # the Sv write lock
            action, uid, "get_server_with_uses", str(uid), True)
        raise Killed("client process killed mid-unbind")

    world.db_client.decrement = killing_decrement
    try:
        def unbind_body():
            yield from world.scheme.unbind(UID, outcome)

        with pytest.raises(Killed):
            world.run(unbind_body())
    finally:
        world.db_client.decrement = original
    world.assert_no_leaked_locks()
