"""Tests for reusable intention records."""

from types import SimpleNamespace

from repro.actions import (
    ActionStatus,
    AtomicAction,
    RemoteParticipantRecord,
    ToldParticipantRecord,
)
from repro.cluster.server_host import SERVER_SERVICE
from repro.naming.binding import BindOutcome
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.replication.commit import ServerParticipantRecord
from repro.replication.policy import PolicyBinding
from repro.sim import Scheduler
from repro.storage import Uid


class Participant:
    """A 2PC participant service with scripted behaviour."""

    def __init__(self, verdict="ok"):
        self.verdict = verdict
        self.calls = []

    def prepare(self, path):
        self.calls.append(("prepare", tuple(path)))
        return self.verdict

    def commit(self, path):
        self.calls.append(("commit", tuple(path)))

    def abort(self, path):
        self.calls.append(("abort", tuple(path)))


def make_rpc_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    agents = {}
    for name in ("client", "db"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
    return s, net, agents


def run_action_in_process(s, action, do="commit"):
    def body():
        if do == "commit":
            return (yield from action.commit())
        return (yield from action.abort())
    return s.run_until_settled(s.spawn(body()), until=100.0)


# -- the participant that is asked for its vote: a server host ---------------


def server_record(agents, participant):
    """A server host's participant record, its one binding live."""
    agents["db"].register(SERVER_SERVICE, participant)
    uid = Uid("n", 1)
    binding = PolicyBinding(uid, BindOutcome(uid), live_hosts=["db"],
                            st_hosts=[])
    record = ServerParticipantRecord(SimpleNamespace(rpc=agents["client"]),
                                     "db", {uid: binding})
    return record, binding


def test_remote_participant_full_commit():
    s, _, agents = make_rpc_world()
    participant = Participant(verdict=("ok", {"n:1": (b"state", 3)}))
    record, _binding = server_record(agents, participant)
    action = AtomicAction()
    action.add_record(record)
    status = run_action_in_process(s, action)
    assert status is ActionStatus.COMMITTED
    assert [c[0] for c in participant.calls] == ["prepare", "commit"]
    assert participant.calls[0][1] == action.id.path
    assert record.states == {"n:1": (b"state", 3)}


def test_remote_participant_readonly_skips_commit():
    s, _, agents = make_rpc_world()
    participant = Participant(verdict=("readonly", {}))
    record, _binding = server_record(agents, participant)
    action = AtomicAction()
    action.add_record(record)
    status = run_action_in_process(s, action)
    assert status is ActionStatus.COMMITTED
    assert [c[0] for c in participant.calls] == ["prepare"]


def test_an_unreachable_server_host_votes_readonly_and_loses_its_binding():
    """A crashed host's volatile state died with it: nothing to commit
    or abort there, so its silence is no veto -- whether the action can
    still commit is the state-distribution record's question."""
    s, net, agents = make_rpc_world()
    participant = Participant(verdict=("ok", {}))
    record, binding = server_record(agents, participant)
    net._interfaces["db"].up = False
    action = AtomicAction()
    action.add_record(record)
    status = run_action_in_process(s, action)
    assert status is ActionStatus.COMMITTED
    assert binding.live_hosts == [] and participant.calls == []


def test_abort_tolerates_unreachable_participant():
    s, net, agents = make_rpc_world()
    agents["db"].register("svc", Participant())
    net._interfaces["db"].up = False
    action = AtomicAction()
    action.add_record(RemoteParticipantRecord(agents["client"], "db", "svc"))
    status = run_action_in_process(s, action, do="abort")
    assert status is ActionStatus.ABORTED


# -- the participant that is told, not polled ---------------------------------


def told_record(agents, target="db", **kwargs):
    from repro.sim import SeededRng

    if kwargs.get("retries"):
        kwargs.setdefault("rng", SeededRng(9).substream(target))
    return ToldParticipantRecord(agents["client"], target, "svc", **kwargs)


def test_a_told_participant_is_sent_the_outcome_and_no_prepare():
    for do, sent in (("commit", ["commit"]), ("abort", ["abort"])):
        s, _, agents = make_rpc_world()
        participant = Participant()
        agents["db"].register("svc", participant)
        resolved = []
        action = AtomicAction()
        action.add_record(told_record(
            agents, on_resolved=lambda: resolved.append(True)))
        run_action_in_process(s, action, do=do)
        assert [c[0] for c in participant.calls] == sent
        assert resolved == [True]


def test_retries_need_a_seeded_rng():
    import pytest

    s, _, agents = make_rpc_world()
    with pytest.raises(ValueError, match="seeded rng"):
        ToldParticipantRecord(agents["client"], "db", "svc", retries=2)
    with pytest.raises(ValueError):
        ToldParticipantRecord(agents["client"], "db", "svc", retries=-1)


def test_outcome_retry_reaches_a_recovering_gray_participant():
    """The gray window: drop every message for a while, then deliver.
    With retries the participant hears the outcome; without, its lock
    release is lost -- a heuristic either way never an abort."""
    def attempt(retries):
        s, net, agents = make_rpc_world()
        participant = Participant()
        agents["db"].register("svc", participant)
        # Gray window: every request to the db host vanishes for 0.4s.
        net.block("client", "db")
        s.schedule_at(0.4, net.unblock, "client", "db")
        action = AtomicAction()
        action.add_record(told_record(agents, retries=retries, backoff=0.3))
        return run_action_in_process(s, action), action, participant

    status, action, participant = attempt(retries=3)
    assert status is ActionStatus.COMMITTED and not action.commit_failures
    assert [c[0] for c in participant.calls] == ["commit"]

    status, action, participant = attempt(retries=0)
    assert status is ActionStatus.COMMITTED
    assert len(action.commit_failures) == 1
    assert participant.calls == []


def test_a_dropped_outcome_is_reissued_beside_its_groupmate():
    """Two same-order participants are told at one instant; the one
    whose ``commit`` is dropped is re-sent it on its own."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    agents, participants, issued = {}, {}, []
    for name in ("client", "db1", "db2"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
    for name in ("db1", "db2"):
        participants[name] = Participant()
        agents[name].register("svc", participants[name])
    original = agents["client"].call

    def call(target, service, method, *args, **kwargs):
        issued.append((target, method, s.now))
        return original(target, service, method, *args, **kwargs)

    agents["client"].call = call
    net.block("client", "db2")
    s.schedule_at(0.4, net.unblock, "client", "db2")
    action = AtomicAction()
    for name in ("db1", "db2"):
        action.add_record(told_record(agents, name, retries=2, backoff=0.3))
    assert run_action_in_process(s, action) is ActionStatus.COMMITTED

    assert issued[:2] == [("db1", "commit", 0.0), ("db2", "commit", 0.0)]
    assert [m for t, m, _at in issued if t == "db2"] == ["commit", "commit"]
    assert not action.commit_failures
    for participant in participants.values():
        assert [c[0] for c in participant.calls] == ["commit"]


def test_outcome_retry_budget_exhausts_to_a_heuristic_never_an_abort():
    s, net, agents = make_rpc_world()
    agents["db"].register("svc", Participant())
    net._interfaces["db"].up = False  # dark for good, not just gray
    action = AtomicAction()
    record = told_record(agents, retries=2, backoff=0.05)
    action.add_record(record)
    status = run_action_in_process(s, action)
    assert status is ActionStatus.COMMITTED
    assert [failed for failed, _exc in action.commit_failures] == [record]
