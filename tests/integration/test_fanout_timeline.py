"""One round trip per one-to-many step, and the same verdicts under failure.

The paper's protocol is one-to-many at every step: bind to every server
in ``Sv``, join them into one invocation group, copy the new state to
every store in ``St``, run one 2PC over all of them.  Each such step
must cost the transaction one round trip -- every host's message issued
at a single simulated instant -- while each host's own verdict (a
silent store Excluded, a crashed server voting READONLY with its
binding broken) is handled exactly as when they were walked one by one.
"""

from collections import defaultdict

import pytest

from repro import (
    ActiveReplication,
    CoordinatorCohortReplication,
    SingleCopyPassive,
)
from repro.cluster.group_invoke import GroupInvoker
from repro.cluster.server_host import SERVER_SERVICE
from repro.cluster.store_host import STORE_SERVICE
from repro.naming.group_view_db import SERVICE_NAME as NAMING_SERVICE
from repro.replication.commit import StateDistributionRecord

from tests.conftest import build_system

SV = ("s1", "s2", "s3")
ST = ("t1", "t2", "t3")


def get_then_add(uid, hook=None):
    """The transaction body; ``hook(txn)`` runs after the last invocation,
    i.e. just before commit processing starts."""
    def work(txn):
        yield from txn.invoke(uid, "get")
        value = yield from txn.invoke(uid, "add", 1)
        if hook is not None:
            hook(txn)
        return value
    return work


def build(policy, **config):
    return build_system(policy=policy(), sv=SV, st=ST,
                        enable_recovery_managers=False, **config)


def issues(rpc_log, service, method):
    """``{issue instant: [target, ...]}`` of one method's calls."""
    by_instant = defaultdict(list)
    for _who, target, svc, name, at in rpc_log:
        if (svc, name) == (service, method):
            by_instant[at].append(target)
    return dict(by_instant)


def naming_traffic(rpc_log):
    """The name service's methods, in issue order."""
    return [method for _who, _target, service, method, _at in rpc_log
            if service == NAMING_SERVICE]


# Hosts each fanned-out step reaches, per policy; the distinct instants
# at which the client issues RPCs for the whole transaction (15 / 20 /
# 22 when every set was walked one host at a time, 11 / 12 / 10 while
# binding asked the name node twice and commit asked a server for the
# state it was about to prepare, 9 / 10 / 8 while the name node was
# polled for a read-only vote and the coordinator relayed the cohorts'
# checkpoint); and the RPCs the transaction costs in all, the servers'
# own included (their activation reads).  Exact: one more round trip,
# or one more RPC, is a regression that fails here without running
# ``perf/``.
TIMELINES = [
    (SingleCopyPassive, 8, 14, {
        (SERVER_SERVICE, "activate"): 1, (STORE_SERVICE, "write_shadow"): 3,
        (SERVER_SERVICE, "prepare"): 1, (STORE_SERVICE, "commit_shadow"): 3,
        (SERVER_SERVICE, "commit"): 1}),
    (CoordinatorCohortReplication, 8, 22, {
        (SERVER_SERVICE, "activate"): 3, (STORE_SERVICE, "write_shadow"): 3,
        (SERVER_SERVICE, "prepare"): 3, (STORE_SERVICE, "commit_shadow"): 3,
        (SERVER_SERVICE, "commit"): 1,  # only the coordinator wrote
        (SERVER_SERVICE, "install_state"): 2}),  # the cohorts, by the client
    (ActiveReplication, 7, 23, {
        (SERVER_SERVICE, "activate"): 3, (SERVER_SERVICE, "join_group"): 3,
        (STORE_SERVICE, "write_shadow"): 3, (SERVER_SERVICE, "prepare"): 3,
        (STORE_SERVICE, "commit_shadow"): 3, (SERVER_SERVICE, "commit"): 3}),
]


@pytest.mark.parametrize("policy, client_instants, rpcs, fanned", TIMELINES,
                         ids=lambda v: getattr(v, "name", None))
def test_each_one_to_many_step_goes_out_at_a_single_instant(
        rpc_log, policy, client_instants, rpcs, fanned):
    system, client, uid = build(policy)
    del rpc_log[:]
    assert system.run_transaction(client, get_then_add(uid)).committed

    for (service, method), hosts in fanned.items():
        by_instant = issues(rpc_log, service, method)
        assert len(by_instant) == 1, (method, by_instant)
        (targets,) = by_instant.values()
        assert len(targets) == hosts, (method, targets)
    assert len({at for who, *_rest, at in rpc_log
                if who == "c1"}) == client_instants
    assert len(rpc_log) == rpcs
    assert {who for who, _target, _svc, method, _at in rpc_log
            if method == "install_state"} <= {"c1"}
    assert not issues(rpc_log, SERVER_SERVICE, "checkpoint_to")


@pytest.mark.parametrize("policy", [SingleCopyPassive,
                                    CoordinatorCohortReplication,
                                    ActiveReplication])
def test_binding_asks_the_name_node_once_and_commit_never_asks_for_state(
        rpc_log, policy):
    """``Sv`` and ``St`` are one lookup, and the state copied to the
    stores arrives with the servers' prepare votes -- which therefore go
    out first, before the shadow writes.  The name node is never polled:
    once the stores have promoted their shadows, everybody who is only
    waiting for the outcome is told it at one instant."""
    system, client, uid = build(policy)
    del rpc_log[:]
    assert system.run_transaction(client, get_then_add(uid)).committed

    assert naming_traffic(rpc_log) == ["get_binding", "commit"]
    assert not issues(rpc_log, SERVER_SERVICE, "get_state")
    (prepared_at,) = issues(rpc_log, SERVER_SERVICE, "prepare")
    (shadowed_at,) = issues(rpc_log, STORE_SERVICE, "write_shadow")
    (promoted_at,) = issues(rpc_log, STORE_SERVICE, "commit_shadow")
    (told_at,) = issues(rpc_log, NAMING_SERVICE, "commit")
    assert prepared_at < shadowed_at < promoted_at < told_at
    outcome = {told_at, *issues(rpc_log, SERVER_SERVICE, "commit"),
               *issues(rpc_log, SERVER_SERVICE, "install_state")}
    assert outcome == {told_at}


# The use-list schemes (figures 7 and 8) on a sharded, twice-replicated
# name service: one lookup per bind, and no name node is ever sent
# ``prepare`` -- the bind and unbind actions' phase 2 follows their last
# write directly (the acknowledgement was the vote), and the client
# action, which merely read ``St`` there, releases that lock with the
# ``commit`` of its last fan-out.  18 instants / 27 RPCs while the bind
# looked up ``St`` and the use lists separately and every writer was
# asked to vote; 15 while the client action's name node voted
# ``readonly`` a trip before the servers' ``commit``.
USE_LIST_TIMELINES = [
    ("independent", 14, 22, [
        "get_binding_with_uses", "increment", "increment", "commit",
        "commit", "commit", "decrement", "decrement", "commit", "commit"]),
    # Figure 8 unbinds inside the client action, before it commits.
    ("nested_top_level", 14, 22, [
        "get_binding_with_uses", "increment", "increment", "commit",
        "commit", "decrement", "decrement", "commit", "commit", "commit"]),
]


@pytest.mark.parametrize("scheme, client_instants, rpcs, naming",
                         USE_LIST_TIMELINES, ids=lambda v: v if isinstance(
                             v, str) else None)
def test_a_use_list_transaction_asks_no_writer_to_vote(
        rpc_log, scheme, client_instants, rpcs, naming):
    system, client, uid = build(SingleCopyPassive, scheme=scheme,
                                nameserver_shards=4,
                                nameserver_replication=2)
    del rpc_log[:]
    assert system.run_transaction(client, get_then_add(uid)).committed

    assert naming_traffic(rpc_log) == naming
    assert not issues(rpc_log, NAMING_SERVICE, "prepare")
    for method in ("increment", "decrement"):  # primary first: lock order
        assert len(issues(rpc_log, NAMING_SERVICE, method)) == 2
    assert len({at for who, *_rest, at in rpc_log
                if who == "c1"}) == client_instants
    assert len(rpc_log) == rpcs


def test_a_name_node_that_took_the_exclude_has_voted(rpc_log):
    """Standard scheme: ``write_shadow`` meets a silent store, the
    client Excludes it under its own action, and the name node's
    acknowledgement of that write is its vote -- ``commit`` follows."""
    system, client, uid = build(SingleCopyPassive)
    system.nodes["t2"].crash()
    del rpc_log[:]
    assert system.run_transaction(client, get_then_add(uid)).committed
    assert naming_traffic(rpc_log) == ["get_binding", "exclude", "commit"]
    assert system.db_st(uid) == ["t1", "t3"]


def test_a_group_invocation_returns_once_all_three_members_answered(
        monkeypatch):
    system, client, uid = build(ActiveReplication)
    window = system.nodes["c1"].rpc.default_timeout
    took = []
    original = GroupInvoker.invoke

    def timed(self, *args, **kwargs):
        started = system.scheduler.now
        result = yield from original(self, *args, **kwargs)
        took.append(system.scheduler.now - started)
        return result

    monkeypatch.setattr(GroupInvoker, "invoke", timed)
    assert system.run_transaction(client, get_then_add(uid)).committed
    assert len(took) == 2 and max(took) < window / 2


# -- parity under failure ----------------------------------------------------------


def distribution_record(action):
    (record,) = [r for r in action.records
                 if isinstance(r, StateDistributionRecord)]
    return record


@pytest.mark.parametrize("policy", [SingleCopyPassive,
                                    CoordinatorCohortReplication,
                                    ActiveReplication])
def test_stores_down_during_the_fan_out_are_excluded_in_st_order(
        rpc_log, policy):
    system, client, uid = build(policy)
    system.nodes["t1"].crash()
    system.nodes["t3"].crash()
    seen = {}
    result = system.run_transaction(
        client, get_then_add(uid, hook=lambda txn: seen.update(txn=txn)))
    assert result.committed

    record = distribution_record(seen["txn"].action)
    assert record.excluded_hosts == ["t1", "t3"]
    assert record.prepared_hosts == ["t2"]
    assert system.metrics.counter_value("commit.stores_excluded") == 2
    assert system.db_st(uid) == ["t2"]
    # The survivors' phase 2 never waited on the dead: only t2 is told.
    assert issues(rpc_log, STORE_SERVICE, "commit_shadow").popitem()[1] \
        == ["t2"]


def test_a_server_crashing_before_prepare_votes_readonly_and_loses_its_binding(
        rpc_log):
    system, client, uid = build(ActiveReplication)
    seen = {}

    def crash_a_member(txn):
        seen["txn"] = txn
        system.nodes["s2"].crash()

    result = system.run_transaction(client,
                                    get_then_add(uid, hook=crash_a_member))
    assert result.committed
    assert seen["txn"].bindings[uid].live_hosts == ["s1", "s3"]
    # All three were asked to prepare together; the silent one voted
    # READONLY, so phase 2 goes to the other two only.
    (prepared,) = issues(rpc_log, SERVER_SERVICE, "prepare").values()
    (committed,) = issues(rpc_log, SERVER_SERVICE, "commit").values()
    assert prepared == ["s1", "s2", "s3"] and committed == ["s1", "s3"]
    assert system.store_versions(uid) == {"t1": 2, "t2": 2, "t3": 2}


@pytest.mark.parametrize("policy, commits", [
    (SingleCopyPassive, False),             # the only copy: veto
    (CoordinatorCohortReplication, False),  # never a cohort's clean copy
    (ActiveReplication, True),              # masked by the next member
], ids=lambda v: getattr(v, "name", None))
def test_the_state_source_crashing_before_prepare(rpc_log, policy, commits):
    """s1 is the first source of the state under every policy.  Silent
    at prepare, it votes READONLY and loses its binding; the state then
    comes from the next member that voted ``ok`` *and wrote under the
    action* -- which only active replication has."""
    system, client, uid = build(policy)
    seen = {}

    def crash_the_source(txn):
        seen["txn"] = txn
        system.nodes["s1"].crash()

    result = system.run_transaction(
        client, get_then_add(uid, hook=crash_the_source))
    assert result.committed is commits
    binding = seen["txn"].bindings[uid]
    assert "s1" not in binding.live_hosts
    assert system.db_st(uid) == list(ST)  # nobody Excluded either way
    if commits:
        assert binding.live_hosts == ["s2", "s3"]
        assert system.store_versions(uid) == {"t1": 2, "t2": 2, "t3": 2}
        (committed,) = issues(rpc_log, SERVER_SERVICE, "commit").values()
        assert committed == ["s2", "s3"]
    else:
        assert result.reason == "commit_vetoed"
        assert system.store_versions(uid) == {"t1": 1, "t2": 1, "t3": 1}
        assert not issues(rpc_log, STORE_SERVICE, "write_shadow")


def test_a_server_crashing_between_the_phases_does_not_undo_the_decision():
    system, client, uid = build(ActiveReplication)
    host = system.nodes["s3"].rpc.service(SERVER_SERVICE)
    real_prepare = host.prepare

    def prepare_then_die(action_path):
        reply = real_prepare(action_path)
        system.scheduler.call_soon(system.nodes["s3"].crash)
        return reply

    host.prepare = prepare_then_die
    assert system.run_transaction(client, get_then_add(uid)).committed
    assert system.store_versions(uid) == {"t1": 2, "t2": 2, "t3": 2}


# -- who is only waiting for the outcome --------------------------------------------


def test_a_name_node_dark_from_bind_to_the_end_cannot_veto(rpc_log):
    """The action only read there, and a name node is not polled: the
    decision is the stores' and servers', and the release that meets
    silence is a heuristic (the node's lock table died with it)."""
    system, client, uid = build(SingleCopyPassive)
    seen = {}

    def crash_the_name_node(txn):
        seen["txn"] = txn
        system.nodes["namenode"].crash()

    result = system.run_transaction(
        client, get_then_add(uid, hook=crash_the_name_node))
    assert result.committed
    assert system.store_versions(uid) == {"t1": 2, "t2": 2, "t3": 2}
    assert [record.target for record, _exc
            in seen["txn"].action.commit_failures] == ["namenode"]
    assert not issues(rpc_log, NAMING_SERVICE, "prepare")


def test_a_cohort_down_at_the_last_fan_out_misses_only_its_checkpoint(
        rpc_log):
    system, client, uid = build(CoordinatorCohortReplication)
    host = system.nodes["s3"].rpc.service(SERVER_SERVICE)
    real_prepare = host.prepare

    def prepare_then_die(action_path):
        reply = real_prepare(action_path)
        system.scheduler.call_soon(system.nodes["s3"].crash)
        return reply

    host.prepare = prepare_then_die
    assert system.run_transaction(client, get_then_add(uid)).committed
    assert system.store_versions(uid) == {"t1": 2, "t2": 2, "t3": 2}
    (installed,) = issues(rpc_log, SERVER_SERVICE, "install_state").values()
    assert installed == ["s2", "s3"]
    assert system.metrics.counter_value(
        "policy.coordinator_cohort.checkpoints") == 1  # acceptors only
    states = {name: system.nodes[name].rpc.service(SERVER_SERVICE)
              .get_state(str(uid)) for name in ("s1", "s2")}
    assert states["s1"] == states["s2"] and states["s2"][1] == 2


def test_an_aborting_transaction_tells_name_node_and_servers_together(
        rpc_log):
    """A store that answers ``write_shadow`` with a refusal vetoes the
    commit; the abort is two fan-outs -- everybody who holds locks for
    the action, then the stores that took a shadow."""
    system, client, uid = build(SingleCopyPassive)
    newer = system.nodes["t1"].object_store.read_committed(uid).buffer
    system.nodes["t2"].object_store.install(uid, newer, version=5)
    result = system.run_transaction(client, get_then_add(uid))
    assert result.reason == "commit_vetoed"
    (told_at,) = issues(rpc_log, NAMING_SERVICE, "abort")
    (servers_at,) = issues(rpc_log, SERVER_SERVICE, "abort")
    (discarded_at,) = issues(rpc_log, STORE_SERVICE, "discard_shadow")
    assert told_at == servers_at < discarded_at
    assert not system.db.state_db.locks.is_locked(("st", uid))
