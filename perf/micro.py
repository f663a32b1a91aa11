"""Per-layer microbenchmarks: direct calls into one layer at a time.

Each benchmark times batches of calls to one layer's public functions
and reports the *fastest* of five batches in host microseconds per
call (``<layer>.<name>_us``) -- the minimum, because on a shared
sandbox noise only ever adds time.  Cheap operations run 10 000 calls a
batch; the three that drive a simulated network (an RPC round trip, a
replication-3 naming write) or build an action run fewer, sized so the
whole set takes about two CPU-seconds.

``PYTHONPATH=src python -m perf.micro`` prints the table.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator

from repro import DistributedSystem, LockMode, SystemConfig, Uid
from repro.actions.action import ActionId, AtomicAction, Vote
from repro.actions.locks import LockManager
from repro.actions.records import CallbackRecord
from repro.naming.entry_cache import EntryCache
from repro.naming.shard_router import ShardRouter
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.net.rpc import RpcAgent, RpcRequest
from repro.sim.events import Event, EventQueue
from repro.sim.futures import Future
from repro.sim.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.storage.objectstore import ObjectStore

BATCHES = 5


def _fastest_us(batch: Callable[[], None], calls: int) -> float:
    """Microseconds per call of the fastest of ``BATCHES`` batches."""
    best = float("inf")
    for _ in range(BATCHES):
        began = time.perf_counter()
        batch()
        best = min(best, time.perf_counter() - began)
    return best / calls * 1e6


# -- sim -----------------------------------------------------------------------


def queue_push_pop(calls: int = 10_000) -> float:
    """``EventQueue.push`` then ``pop``, 64 events deep."""
    def batch() -> None:
        queue = EventQueue()
        push, pop = queue.push, queue.pop
        for seq in range(64):
            push(Event(seq * 0.37 % 5.0, seq, print, ()))
        for seq in range(64, 64 + calls):
            push(Event(5.0 + seq * 0.37 % 5.0, seq, print, ()))
            pop()
    return _fastest_us(batch, calls)


def future_wake(calls: int = 10_000) -> float:
    """``Future.resolve`` waking the process that waits on it."""
    def batch() -> None:
        scheduler = Scheduler()
        waiting: list[Future] = []

        def body() -> Generator[Any, Any, None]:
            while True:
                future = Future()
                waiting.append(future)
                yield future

        scheduler.spawn(body())
        scheduler.step()
        for value in range(calls):
            waiting.pop().resolve(value)
    return _fastest_us(batch, calls)


# -- net -----------------------------------------------------------------------


class _Echo:
    def echo(self, value: int) -> int:
        return value


def rpc_roundtrip(calls: int = 2_000) -> float:
    """One ``RpcAgent.call`` round trip on a two-node ``Network``."""
    def batch() -> None:
        scheduler = Scheduler()
        network = Network(scheduler, FixedLatency(0.001))
        caller = RpcAgent(scheduler, network.attach("a"))
        RpcAgent(scheduler, network.attach("b")).register("svc", _Echo())
        for value in range(calls):
            scheduler.run_until_settled(
                caller.call("b", "svc", "echo", value))
    return _fastest_us(batch, calls)


# -- actions -------------------------------------------------------------------


def lock_cycle(calls: int = 10_000) -> float:
    """``LockManager.try_lock`` then ``release_all``, 8 resources held."""
    def batch() -> None:
        locks = LockManager()
        for held in range(8):
            locks.try_lock(ActionId((held + 1,)), f"held{held}", LockMode.READ)
        for serial in range(100, 100 + calls):
            owner = ActionId((serial,))
            locks.try_lock(owner, "entry", LockMode.WRITE)
            locks.release_all(owner)
    return _fastest_us(batch, calls)


def local_2pc(calls: int = 5_000) -> float:
    """A single-node top-level action with one record, through commit."""
    def ok(_action: AtomicAction) -> Vote:
        return Vote.OK

    def done(_action: AtomicAction) -> None:
        return None

    def batch() -> None:
        for _ in range(calls):
            action = AtomicAction()
            action.add_record(CallbackRecord(on_prepare=ok, on_commit=done))
            action.run_local(action.commit())
    return _fastest_us(batch, calls)


# -- storage -------------------------------------------------------------------


def shadow_cycle(calls: int = 10_000) -> float:
    """``ObjectStore.write_shadow`` then ``commit_shadow``."""
    def batch() -> None:
        store = ObjectStore("bench")
        uid = Uid("bench", 1)
        store.install(uid, b"state-0", version=1)
        for version in range(2, 2 + calls):
            store.write_shadow(uid, b"state-n", version)
            store.commit_shadow(uid)
    return _fastest_us(batch, calls)


# -- metering ------------------------------------------------------------------


def record(calls: int = 10_000) -> float:
    """``PlaneTraffic.record_sent`` of a typical naming request."""
    def batch() -> None:
        traffic = MetricsRegistry().plane_traffic("bench", "client")
        request = RpcRequest(7, "groupview", "get_server_with_uses",
                             ((3, 14), "sys:159", True), ring_epoch=2)
        for _ in range(calls):
            traffic.record_sent(request)
    return _fastest_us(batch, calls)


# -- naming --------------------------------------------------------------------


def ring_lookup(calls: int = 10_000) -> float:
    """``ShardRouter.preference_list`` of 2 owners on an 8-host ring."""
    def batch() -> None:
        router = ShardRouter([f"n{i}" for i in range(8)])
        uids = [Uid("sys", serial) for serial in range(256)]
        for index in range(calls):
            router.preference_list(uids[index % 256], 2)
    return _fastest_us(batch, calls)


def cache_lookup(calls: int = 10_000) -> float:
    """``EntryCache.store`` then a ``lookup`` hit, LRU at capacity."""
    def batch() -> None:
        cache = EntryCache(5.0, fence=lambda: 0, clock=lambda: 1.0,
                           capacity=512)
        keys = [f"sys:{serial}" for serial in range(1024)]
        for index in range(calls):
            key = keys[index % 1024]
            cache.store(key, ["s0", "s1"], ["s0"], (1, 1))
            cache.lookup(key)
    return _fastest_us(batch, calls)


def replica_write_r3(calls: int = 200) -> float:
    """``ReplicaIO.write`` to three replicas, then the action's abort.

    The only micro that needs a booted system: the write is three RPCs
    into shard databases, and the abort releases what they locked.
    """
    def batch() -> None:
        system = DistributedSystem(SystemConfig(
            seed=1, nameserver_shards=3, nameserver_replication=3,
            enable_recovery_managers=False, fixed_latency=0.001))
        system.add_node("s0", server=True, store=True)
        client = system.add_client("c0")
        uid = system.new_uid()
        system.db.define_object((0,), str(uid), ["s0"], ["s0"])
        system.db.commit((0,))
        io = client._ctx.db.io

        def write_once() -> Generator[Any, Any, None]:
            action = AtomicAction(node="c0")
            yield from io.write(action, uid, "include", str(uid), "s0")
            yield from action.abort()

        for _ in range(calls):
            system.run_until(system.scheduler.spawn(write_once()))
    return _fastest_us(batch, calls)


#: ``metric name -> benchmark``; the name's prefix is the layer.
MICROS: dict[str, Callable[[], float]] = {
    "sim.queue_push_pop_us": queue_push_pop,
    "sim.future_wake_us": future_wake,
    "metering.record_us": record,
    "net.rpc_roundtrip_us": rpc_roundtrip,
    "actions.lock_cycle_us": lock_cycle,
    "actions.local_2pc_us": local_2pc,
    "storage.shadow_cycle_us": shadow_cycle,
    "naming.ring_lookup_us": ring_lookup,
    "naming.cache_lookup_us": cache_lookup,
    "naming.replica_write_r3_us": replica_write_r3,
}


def run_all() -> dict[str, float]:
    return {name: bench() for name, bench in MICROS.items()}


if __name__ == "__main__":
    for metric, value in run_all().items():
        print(f"{metric:32s} {value:10.3f} us")
