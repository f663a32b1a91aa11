"""Tests for the commit-plane batcher's coalescing and demux."""

import pytest

from repro.net import (
    FixedLatency,
    MessageDemux,
    Network,
    RpcAgent,
    RpcRemoteError,
    RpcTimeout,
)
from repro.net.batch import CommitBatcher, demux
from repro.sim import Scheduler


class Store:
    """A service with both plain and ``_many`` shapes."""

    def __init__(self):
        self.plain_calls = []
        self.many_calls = []

    def put(self, key, value):
        self.plain_calls.append((key, value))
        return f"{key}={value}"

    def _put(self, key, value):
        if key == "bad":
            raise ValueError("refused")
        return f"{key}={value}"

    def put_many(self, items):
        self.many_calls.append(list(items))
        return demux(self._put, items)

    def broken_many(self, items):
        # Violates the demux contract: one outcome short.
        return [("ok", None) for _ in items][:-1]

    def broken(self, x):
        return x


def make_pair(window=0.005, latency=0.01):
    s = Scheduler()
    net = Network(s, FixedLatency(latency))
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
    batcher = CommitBatcher(s, agents["a"], window=window)
    return s, agents["a"], agents["b"], batcher


def test_two_calls_in_one_window_share_a_many_rpc():
    s, _a, b, batcher = make_pair()
    store = Store()
    b.register("store", store)
    f1 = batcher.call("b", "store", "put", "x", 1)
    f2 = batcher.call("b", "store", "put", "y", 2)
    assert s.run_until_settled(f1) == "x=1"
    assert s.run_until_settled(f2) == "y=2"
    assert store.plain_calls == []
    assert store.many_calls == [[("x", 1), ("y", 2)]]


def test_mixed_outcomes_demux_per_item():
    """One straggler's refusal must not poison its batchmates."""
    s, _a, b, batcher = make_pair()
    b.register("store", Store())
    good = batcher.call("b", "store", "put", "x", 1)
    bad = batcher.call("b", "store", "put", "bad", 2)
    also_good = batcher.call("b", "store", "put", "z", 3)
    assert s.run_until_settled(good) == "x=1"
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(bad)
    assert info.value.remote_type == "ValueError"
    assert s.run_until_settled(also_good) == "z=3"


def test_demux_reports_a_malformed_item_in_its_own_slot():
    """The server half alone: a refusal and a wrong-arity tuple each
    fill their own slot; the batchmates' outcomes are untouched."""
    outcomes = demux(Store()._put, [("x", 1), ("bad", 2), ("short",),
                                    ("z", 3)])
    assert outcomes[0] == ("ok", "x=1")
    assert outcomes[1] == ("err", "ValueError", "refused")
    assert outcomes[2][:2] == ("err", "TypeError")
    assert outcomes[3] == ("ok", "z=3")


def test_singleton_window_ships_the_plain_call():
    """Alone in the window -> no ``_many`` handler needed at all."""
    s, _a, b, batcher = make_pair()
    store = Store()
    b.register("store", store)
    future = batcher.call("b", "store", "put", "x", 1)
    assert s.run_until_settled(future) == "x=1"
    assert store.plain_calls == [("x", 1)]
    assert store.many_calls == []


def test_distinct_methods_and_targets_never_share_a_batch():
    s, _a, b, batcher = make_pair()
    store = Store()
    b.register("store", store)
    f1 = batcher.call("b", "store", "put", "x", 1)
    f2 = batcher.call("missing", "store", "put", "y", 2)
    assert s.run_until_settled(f1) == "x=1"
    assert store.plain_calls == [("x", 1)]  # not coalesced cross-target
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f2)


def test_whole_batch_failure_fails_every_member():
    s, _a, b, batcher = make_pair()
    # No service registered: the one _many RPC fails remotely, and each
    # member sees the verdict its own unbatched call would have seen.
    f1 = batcher.call("b", "store", "put", "x", 1)
    f2 = batcher.call("b", "store", "put", "y", 2)
    with pytest.raises(RpcRemoteError):
        s.run_until_settled(f1)
    with pytest.raises(RpcRemoteError):
        s.run_until_settled(f2)


def test_outcome_count_mismatch_is_a_protocol_error():
    s, _a, b, batcher = make_pair()
    b.register("store", Store())
    f1 = batcher.call("b", "store", "broken", 1)
    f2 = batcher.call("b", "store", "broken", 2)
    for future in (f1, f2):
        with pytest.raises(RpcRemoteError) as info:
            s.run_until_settled(future)
        assert info.value.remote_type == "BatchProtocolError"


def test_reset_fails_buffered_calls_and_kills_scheduled_flushes():
    s, a, b, batcher = make_pair()
    store = Store()
    b.register("store", store)
    doomed = batcher.call("b", "store", "put", "x", 1)
    assert sum(map(len, batcher._queues.values())) == 1
    batcher.reset()
    assert not any(batcher._queues.values())
    assert doomed.failed and isinstance(doomed.exception(), RpcTimeout)
    # The flush scheduled before the reset must not fire against the
    # new incarnation's queues...
    survivor = batcher.call("b", "store", "put", "y", 2)
    assert s.run_until_settled(survivor) == "y=2"
    # ...and nothing from the pre-reset batch ever reached the wire.
    assert ("x", 1) not in store.plain_calls
    assert all(("x", 1) not in batch for batch in store.many_calls)


def test_metrics_count_flushes_items_and_batched_rpcs():
    from repro.sim.metrics import MetricsRegistry
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
    metrics = MetricsRegistry()
    batcher = CommitBatcher(s, agents["a"], window=0.005, metrics=metrics)
    agents["b"].register("store", Store())
    futures = [batcher.call("b", "store", "put", f"k{i}", i)
               for i in range(3)]
    for future in futures:
        s.run_until_settled(future)
    lone = batcher.call("b", "store", "put", "solo", 9)
    s.run_until_settled(lone)
    assert metrics.counter_value("commit_batch.flushes") == 2
    assert metrics.counter_value("commit_batch.items") == 3
    assert metrics.counter_value("commit_batch.batched_rpcs") == 1
    assert metrics.histogram("commit_batch.batch_size").count == 2
