"""Tests for naive and reliable ordered multicast (figure 1)."""

from repro.net import (
    FixedLatency,
    GroupView,
    MessageDemux,
    NaiveMulticastMember,
    Network,
    ReliableOrderedMulticastMember,
)
from repro.sim import Scheduler


def make_members(cls, names, group, view_names=None, **kwargs):
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    members = {}
    logs = {}
    view = GroupView(tuple(view_names or names))
    for name in names:
        nic = net.attach(name)
        member = cls(s, nic, MessageDemux(nic), **kwargs)
        members[name] = member
        if name in view:
            logs[name] = []
            member.join(group, view, lambda d, n=name: logs[n].append(d))
    return s, net, members, logs, view


def test_naive_delivers_to_all_when_no_failures():
    s, _, members, logs, view = make_members(
        NaiveMulticastMember, ["a", "b", "c"], "G")
    members["a"].send("G", view, "msg")
    s.run()
    assert [d.payload for d in logs["b"]] == ["msg"]
    assert [d.payload for d in logs["c"]] == ["msg"]


def test_naive_partial_delivery_on_sender_crash():
    """The figure-1 failure: sender crashes between unicasts."""
    s, net, members, logs, view = make_members(
        NaiveMulticastMember, ["g1", "g2", "x"], "G",
        view_names=["g1", "g2"], stagger=0.001)
    members["x"].send("G", view, "reply")
    s.schedule(0.0005, lambda: setattr(net._interfaces["x"], "up", False))
    s.run()
    assert [d.payload for d in logs["g1"]] == ["reply"]
    assert [d.payload for d in logs["g2"]] == []  # divergence!


def test_reliable_all_or_nothing_on_sender_crash():
    """Same crash pattern: flooding relay closes the gap."""
    s, net, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["g1", "g2", "x"], "G",
        view_names=["g1", "g2"], stagger=0.001)
    members["x"].send("G", view, "reply")
    s.schedule(0.0005, lambda: setattr(net._interfaces["x"], "up", False))
    s.run()
    assert [d.payload for d in logs["g1"]] == ["reply"]
    assert [d.payload for d in logs["g2"]] == ["reply"]


def test_reliable_sequencer_crash_mid_fanout_still_all_or_nothing():
    """Sequencer crashes after reaching only one member: relay saves it."""
    s, net, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["g1", "g2", "g3", "x"], "G",
        view_names=["g1", "g2", "g3"], stagger=0.01)
    members["x"].send("G", view, "m")
    # g1 is the sequencer; it delivers locally at ~0.01 and emits to g2
    # then g3 staggered.  Crash it between the two emissions.
    s.schedule(0.025, lambda: setattr(net._interfaces["g1"], "up", False))
    s.run(max_events=100000)
    assert [d.payload for d in logs["g2"]] == ["m"]
    assert [d.payload for d in logs["g3"]] == ["m"]


def test_reliable_total_order_across_senders():
    s, _, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["a", "b", "c", "s1", "s2"], "G",
        view_names=["a", "b", "c"])
    for i in range(5):
        members["s1"].send("G", view, f"s1-{i}")
        members["s2"].send("G", view, f"s2-{i}")
    s.run(max_events=200000)
    sequences = {n: [d.payload for d in logs[n]] for n in ("a", "b", "c")}
    assert len(sequences["a"]) == 10
    assert sequences["a"] == sequences["b"] == sequences["c"]
    seqs = [d.seq for d in logs["a"]]
    assert seqs == sorted(seqs)


def test_reliable_nack_repairs_targeted_drop():
    s, net, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["a", "b", "x"], "G",
        view_names=["a", "b"], nack_delay=0.05)
    # Drop the first direct data emission to b AND a's relay, forcing b
    # to discover the gap via the next message and NACK-repair it.
    dropped = []

    def drop_first_to_b(msg):
        if (msg.kind == "mcast.data" and msg.target == "b"
                and getattr(msg.payload, "seq", 0) == 1 and len(dropped) < 2):
            dropped.append(msg)
            return True
        return False

    net.add_drop_rule(drop_first_to_b)
    members["x"].send("G", view, "one")
    s.run(until=0.04)
    net.clear_drop_rules()
    members["x"].send("G", view, "two")
    s.run(until=5.0)
    assert [d.payload for d in logs["b"]] == ["one", "two"]
    assert [d.payload for d in logs["a"]] == ["one", "two"]


def test_logged_member_serves_nack_after_delivery():
    s, net, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["a", "b", "x"], "G",
        view_names=["a", "b"], nack_delay=0.05)
    dropped = []

    def drop_all_seq1_to_b(msg):
        if (msg.kind == "mcast.data" and msg.target == "b"
                and getattr(msg.payload, "seq", 0) == 1):
            if len(dropped) < 2:
                dropped.append(msg)
                return True
        return False

    net.add_drop_rule(drop_all_seq1_to_b)
    members["x"].send("G", view, "one")
    s.run(until=0.03)
    net.clear_drop_rules()
    # a has *delivered* seq 1 (not in holdback anymore); only the logged
    # member can answer b's NACK now.
    members["x"].send("G", view, "two")
    s.run(until=5.0)
    assert [d.payload for d in logs["b"]] == ["one", "two"]


def test_duplicate_suppression():
    s, _, members, logs, view = make_members(
        ReliableOrderedMulticastMember, ["a", "b"], "G")
    members["a"].send("G", view, "once")
    s.run(max_events=50000)
    # Flooding relays could duplicate; each member must deliver once.
    assert len(logs["a"]) == 1
    assert len(logs["b"]) == 1


def test_non_member_receives_nothing():
    s, _, members, logs, view = make_members(
        NaiveMulticastMember, ["a", "b", "out"], "G", view_names=["a", "b"])
    members["a"].send("G", view, "m")
    s.run()
    assert members["out"].delivered == []


def test_member_reset_forgets_groups():
    s, _, members, logs, view = make_members(
        NaiveMulticastMember, ["a", "b"], "G")
    members["b"].reset()
    members["a"].send("G", view, "m")
    s.run()
    assert logs["b"] == []


def test_join_requires_membership():
    import pytest
    s = Scheduler()
    net = Network(s, FixedLatency())
    nic = net.attach("loner")
    member = NaiveMulticastMember(s, nic, MessageDemux(nic))
    with pytest.raises(ValueError):
        member.join("G", GroupView.of("somebody-else"), lambda d: None)


# -- the coherence plane's late-joiner and mid-push crash patterns -----------


def _pair(s, net, name):
    nic = net.attach(name)
    return ReliableOrderedMulticastMember(s, nic, MessageDemux(nic))


def test_expect_then_join_drains_pushes_raced_with_registration():
    """A push sequenced mid-registration lands in the pre-join stash."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    owner = _pair(s, net, "o")
    lessee = _pair(s, net, "c")
    owner.join("G", GroupView.of("o"), lambda d: None)
    # The lessee's registration RPC is in flight: it stashes first.
    lessee.expect("G")
    # The owner admits it and pushes before the join takes effect.
    view = GroupView.of("o", "c")
    owner.update_view("G", view)
    start = owner.next_send_seq("G")
    owner.send("G", view, "inval-1")
    owner.send("G", view, "inval-2")
    s.run()
    got = []
    assert lessee.delivered == []  # stashed, not delivered
    lessee.join("G", view, got.append, from_seq=start)
    assert [d.payload for d in got] == ["inval-1", "inval-2"]


def test_unexpect_drops_the_stash_on_failed_registration():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    owner = _pair(s, net, "o")
    lessee = _pair(s, net, "c")
    owner.join("G", GroupView.of("o"), lambda d: None)
    lessee.expect("G")
    view = GroupView.of("o", "c")
    owner.update_view("G", view)
    owner.send("G", view, "inval")
    s.run()
    lessee.unexpect("G")
    got = []
    lessee.join("G", view, got.append, from_seq=2)
    s.run()
    assert got == []  # nothing resurrected after the stash was dropped


def test_late_joiner_from_seq_skips_history_without_nacking():
    """Joining at the handed-off sequence sees only subsequent pushes."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    owner = _pair(s, net, "o")
    lessee = _pair(s, net, "c")
    owner.join("G", GroupView.of("o"), lambda d: None)
    for i in range(3):
        owner.send("G", GroupView.of("o"), f"old-{i}")
    s.run()
    view = GroupView.of("o", "c")
    owner.update_view("G", view)
    got = []
    lessee.join("G", view, got.append, from_seq=owner.next_send_seq("G"))
    owner.send("G", view, "new")
    s.run(until=5.0)
    assert [d.payload for d in got] == ["new"]


def test_owner_crash_mid_push_flood_relay_closes_the_gap():
    """The owner (sequencer AND origin) crashes between its emissions.

    The coherence push pattern: the owning host sequences its own
    invalidation and fans it out to the lessee cohort.  Crashing after
    reaching only the first lessee must not leave the cohort split --
    the first receiver's flooding relay carries the push to the rest.
    """
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    owner = _pair(s, net, "o")
    l1 = _pair(s, net, "l1")
    l2 = _pair(s, net, "l2")
    view = GroupView.of("o", "l1", "l2")
    logs = {"l1": [], "l2": []}
    owner.join("G", view, lambda d: None)
    l1.join("G", view, logs["l1"].append)
    l2.join("G", view, logs["l2"].append)
    owner.send("G", view, ("inval", "uid-7"))
    # Emissions are staggered (l1 at ~0.0005, l2 at ~0.001); kill the
    # owner's NIC between the two.
    s.schedule(0.0007, lambda: setattr(net._interfaces["o"], "up", False))
    s.run(max_events=100000)
    assert [d.payload for d in logs["l1"]] == [("inval", "uid-7")]
    assert [d.payload for d in logs["l2"]] == [("inval", "uid-7")]


def test_lessee_crash_mid_push_leaves_the_survivors_consistent():
    """A lessee dying mid-push costs only itself; the stream continues."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    owner = _pair(s, net, "o")
    l1 = _pair(s, net, "l1")
    l2 = _pair(s, net, "l2")
    view = GroupView.of("o", "l1", "l2")
    logs = {"l1": [], "l2": []}
    owner.join("G", view, lambda d: None)
    l1.join("G", view, logs["l1"].append)
    l2.join("G", view, logs["l2"].append)
    owner.send("G", view, "push-1")
    s.schedule(0.001, lambda: setattr(net._interfaces["l2"], "up", False))
    s.run(until=1.0)
    assert [d.payload for d in logs["l1"]] == ["push-1"]
    assert logs["l2"] == []
    # The crash wipes the lessee's volatile group state...
    l2.reset()
    assert not l2.joined("G")
    # ...and the owner keeps pushing to the pruned cohort, sequence
    # numbering intact.
    pruned = GroupView.of("o", "l1")
    owner.update_view("G", pruned)
    owner.send("G", pruned, "push-2")
    s.run(until=2.0)
    assert [d.payload for d in logs["l1"]] == ["push-1", "push-2"]
    assert [d.seq for d in logs["l1"]] == [1, 2]
