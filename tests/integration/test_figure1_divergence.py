"""Integration test for figure 1: replica divergence without reliable
ordered group communication, and its absence with it.

The scenario: a sender transmits a message to replica group
GA = {A1, A2} and crashes part-way through delivery, so one member
receives it and the other does not -- their subsequent behaviour
diverges (paper section 2.3).  We reproduce it on the invocation path
of active replication: the client multicasts a write invocation to the
replica group and crashes mid-send.

- With the **naive** multicast (a sequence of staggered unicasts), A1
  applies the write and A2 never sees it: divergent replica states.
- With the **reliable ordered** multicast, the send is a single submit
  to the group's sequencer and every received message is relayed, so
  the surviving replicas are always mutually identical.
"""

from repro import ActiveReplication

from repro.workload.scenarios import run
from tests.conftest import Counter, add_work, build_system


def test_naive_multicast_diverges():
    row = run("paper_fig1_divergence", reliable_multicast=False,
              crash_offset=0.005, seed=7)
    # sv0 received the second invocation before the client died; sv1 did
    # not.  Bonus: the orphan-action janitor then aborts the dead
    # client's action at sv0, rolling the divergent write back -- the
    # counter reads its pre-action value, nothing lost or invented.
    assert row["states"] == {"sv0": 2, "sv1": 1}
    assert (row["lost_bindings"], row["stale_bindings"]) == (0, 0)


def test_reliable_multicast_keeps_replicas_identical():
    row = run("paper_fig1_divergence", crash_offset=0.005, seed=7)
    assert set(row["states"]) == {"sv0", "sv1"} and not row["diverged"]


def test_reliable_multicast_identical_order_under_concurrency():
    """Writes from two clients reach all replicas in the same order."""
    system, c1, uid = build_system(ActiveReplication(), st=("t1",), value=0,
                                   seed=11, reliable_multicast=True)
    c2 = system.add_client("c2", policy=ActiveReplication())
    for i in range(4):
        client = c1 if i % 2 == 0 else c2
        assert system.run_transaction(client, add_work(uid, 1)).committed

    states = [system.nodes[host].rpc.service("servers").get_state(str(uid))
              for host in ("s1", "s2", "s3")]
    assert [Counter.deserialise(buffer).value for buffer, _ in states] == [4] * 3
