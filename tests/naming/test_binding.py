"""Tests for the three binding schemes (figures 6-8), in isolation.

The schemes are exercised against a real group-view database served
over simulated RPC, with a scripted binder standing in for server
activation: hosts listed in ``dead_hosts`` fail their bind attempts.
"""

import pytest

from repro.actions import ActionStatus, AtomicAction
from repro.naming import GroupViewDatabase
from repro.naming.binding import (
    BindFailed,
    IndependentTopLevelBinding,
    NestedTopLevelBinding,
    StandardBinding,
)
from repro.naming.shard_router import ShardRouter
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Future, MetricsRegistry, Scheduler
from repro.storage import Uid

from tests.conftest import serve_outcomes

UID = Uid("sys", 1)


class World:
    def __init__(self, scheme_cls, sv=("h1", "h2", "h3"), dead=(),
                 **scheme_kwargs):
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, FixedLatency(0.01))
        self.metrics = MetricsRegistry()
        nic_db = self.network.attach("db")
        self.db_agent = RpcAgent(self.scheduler, nic_db,
                                 demux=MessageDemux(nic_db))
        self.db = GroupViewDatabase()
        self.db_agent.register("group_view_db", self.db)
        self.db.park_on(self.db_agent)  # as a deployment's name node does
        boot = AtomicAction()
        self.db.define_object(boot.id.path, str(UID), list(sv), ["t1"])
        self.db.commit(boot.id.path)

        nic_client = self.network.attach("client")
        self.client_agent = serve_outcomes(RpcAgent(
            self.scheduler, nic_client, demux=MessageDemux(nic_client)))
        self.db_client = ShardedGroupViewDbClient(self.client_agent,
                                                  ShardRouter(["db"]))
        self.scheme = scheme_cls(self.db_client, "client",
                                 metrics=self.metrics, **scheme_kwargs)
        self.dead_hosts = set(dead)
        self.bind_attempts = []

    def binder(self, host, uid, action, st_hosts):
        self.bind_attempts.append(host)
        self.st_seen = st_hosts
        bound = Future()
        bound.resolve(host not in self.dead_hosts)
        return bound

    def run_bind(self, action, k=None, read_only=False):
        def body():
            return (yield from self.scheme.bind(action, UID, self.binder,
                                                k=k, read_only=read_only))
        return self.scheduler.run_until_settled(
            self.scheduler.spawn(body()), until=100.0)

    def run_unbind(self, outcome, within_action=None):
        def body():
            yield from self.scheme.unbind(UID, outcome,
                                          within_action=within_action)
        return self.scheduler.run_until_settled(
            self.scheduler.spawn(body()), until=100.0)

    def run_commit(self, action):
        def body():
            return (yield from action.commit())
        return self.scheduler.run_until_settled(
            self.scheduler.spawn(body()), until=100.0)

    def sv_now(self):
        probe = AtomicAction()
        hosts = self.db.server_db.get_server(probe.id.path, UID)
        self.db.abort(probe.id.path)
        return hosts

    def uses_now(self):
        probe = AtomicAction()
        snapshot = self.db.get_server_with_uses(probe.id.path, str(UID))
        self.db.abort(probe.id.path)
        return {h: dict(c) for h, c in snapshot.uses.items()}


# -- standard scheme (figure 6) ------------------------------------------------


def test_standard_binds_all_functioning_hosts():
    world = World(StandardBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    assert outcome.bound_hosts == ["h1", "h2", "h3"]
    assert outcome.failed_hosts == []
    # St came back with Sv and reaches both the binder and the outcome.
    assert world.st_seen == outcome.st_hosts == ["t1"]


def test_standard_discovers_dead_servers_the_hard_way():
    world = World(StandardBinding, dead=("h1", "h2"))
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    assert outcome.bound_hosts == ["h3"]
    assert outcome.failed_hosts == ["h1", "h2"]
    # Crucially, Sv is NOT updated: the next client pays again.
    assert world.sv_now() == ["h1", "h2", "h3"]
    assert world.metrics.counter_value("binding.standard.failed_attempts") == 2


def test_standard_k_limits_activation():
    world = World(StandardBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action, k=1)
    assert outcome.bound_hosts == ["h1"]
    assert world.bind_attempts == ["h1"]


def test_standard_read_only_binds_single_server():
    world = World(StandardBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action, read_only=True)
    assert len(outcome.bound_hosts) == 1
    assert len(world.bind_attempts) == 1  # stopped at the first success


@pytest.mark.parametrize("k, instants", [(None, 1), (3, 1), (2, 3)])
def test_attempts_fan_out_only_when_every_candidate_must_be_tried(k, instants):
    """``k`` of None or >= |Sv|: all attempts in flight at once.  A
    smaller ``k`` issues the next attempt only after the previous one
    failed, so no server beyond the ``k``-th success is ever activated."""
    world = World(StandardBinding, dead=("h1",))
    issued = []

    def slow_binder(host, uid, action, st_hosts):
        issued.append((host, world.scheduler.now))
        bound = Future()
        world.scheduler.schedule(0.02, bound.resolve,
                                 host not in world.dead_hosts)
        return bound

    world.binder = slow_binder
    outcome = world.run_bind(AtomicAction(node="client"), k=k)
    assert outcome.bound_hosts == ["h2", "h3"]
    assert outcome.failed_hosts == ["h1"]
    assert [host for host, _at in issued] == ["h1", "h2", "h3"]
    assert len({at for _host, at in issued}) == instants


def test_standard_all_dead_raises_bind_failed():
    world = World(StandardBinding, dead=("h1", "h2", "h3"))
    action = AtomicAction(node="client")
    with pytest.raises(BindFailed):
        world.run_bind(action)


def test_standard_read_lock_held_until_client_action_ends():
    world = World(StandardBinding)
    action = AtomicAction(node="client")
    world.run_bind(action)
    # A writer is blocked while the client action is open...
    writer = AtomicAction()
    from repro.actions import LockRefused
    with pytest.raises(LockRefused):
        world.db.insert(writer.id.path, str(UID), "h9")
    # ...and free after the client's top-level commit.
    status = world.run_commit(action)
    assert status is ActionStatus.COMMITTED
    writer2 = AtomicAction()
    world.db.insert(writer2.id.path, str(UID), "h9")


def test_standard_unbind_is_noop():
    world = World(StandardBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    world.run_unbind(outcome)
    assert world.uses_now() == {"h1": {}, "h2": {}, "h3": {}}


# -- independent top-level scheme (figure 7) -------------------------------------


def test_independent_increments_use_lists():
    world = World(IndependentTopLevelBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    uses = world.uses_now()
    assert uses["h1"] == {"client": 1}
    assert uses["h2"] == {"client": 1}
    assert uses["h3"] == {"client": 1}
    # The client action itself holds NO lock on the entry.
    writer = AtomicAction()
    world.db.remove(writer.id.path, str(UID), "h9")
    world.db.abort(writer.id.path)
    # Unbind decrements.
    world.run_unbind(outcome)
    assert world.uses_now() == {"h1": {}, "h2": {}, "h3": {}}


def test_independent_removes_failed_servers_from_sv():
    """Figure 7's payoff: Sv stays fresh."""
    world = World(IndependentTopLevelBinding, dead=("h1",))
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    assert outcome.bound_hosts == ["h2", "h3"]
    assert world.sv_now() == ["h2", "h3"]  # h1 Removed


def test_independent_k_respected_when_quiescent():
    world = World(IndependentTopLevelBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action, k=2)
    assert outcome.bound_hosts == ["h1", "h2"]


def test_independent_second_client_joins_used_servers():
    """Non-empty use lists force binding to the servers in use."""
    world = World(IndependentTopLevelBinding)
    first_action = AtomicAction(node="client")
    first = world.run_bind(first_action, k=1)
    assert first.bound_hosts == ["h1"]
    # Second client (same scheme instance = same client node) binds while
    # h1 is in use: it must join h1 even though k would allow free choice.
    second_action = AtomicAction(node="client")
    second = world.run_bind(second_action, k=1)
    assert second.bound_hosts == ["h1"]
    assert not second.use_lists_were_empty
    uses = world.uses_now()
    assert uses["h1"] == {"client": 2}


def test_independent_all_dead_raises():
    world = World(IndependentTopLevelBinding, dead=("h1", "h2", "h3"))
    action = AtomicAction(node="client")
    with pytest.raises(BindFailed):
        world.run_bind(action)
    # The failed servers were still Removed (that knowledge is useful).
    assert world.sv_now() == []


def test_independent_bind_uses_write_locks_on_db():
    world = World(IndependentTopLevelBinding)
    action = AtomicAction(node="client")
    world.run_bind(action)
    writes = world.db.metrics.counter_value("server_db.locks.write")
    assert writes >= 1  # the entry's define took a write lock


# -- nested top-level scheme (figure 8) --------------------------------------------


def test_nested_top_level_behaves_like_independent_for_binding():
    world = World(NestedTopLevelBinding, dead=("h2",))
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    assert outcome.bound_hosts == ["h1", "h3"]
    assert world.sv_now() == ["h1", "h3"]
    uses = world.uses_now()
    assert uses["h1"] == {"client": 1}


def test_nested_top_level_db_actions_survive_client_abort():
    """The db updates committed independently of the client action."""
    world = World(NestedTopLevelBinding, dead=("h1",))
    action = AtomicAction(node="client")
    world.run_bind(action)

    def abort_body():
        yield from action.abort()
    world.scheduler.run_until_settled(
        world.scheduler.spawn(abort_body()), until=100.0)
    # The Remove of h1 and the Increments remain committed.
    assert world.sv_now() == ["h2", "h3"]
    assert world.uses_now()["h2"] == {"client": 1}


def test_nested_top_level_unbind_within_action():
    world = World(NestedTopLevelBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    world.run_unbind(outcome, within_action=action)
    assert world.uses_now() == {"h1": {}, "h2": {}, "h3": {}}
    status = world.run_commit(action)
    assert status is ActionStatus.COMMITTED
