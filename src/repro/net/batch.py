"""The commit-plane batcher: coalesce per-action RPCs into ``_many`` calls.

Every top-level action pays a prepare round and a commit (or abort)
round to each store host, and an outcome message to each enlisted
shard.  Under concurrency the
same (coordinator, target, phase) triple carries many of those messages
at the same virtual instant -- one per action -- and each one charges
the target's single-server queue separately.  A :class:`CommitBatcher`
sits between the commit-path records and the node's RPC agent and
coalesces them: calls to one ``(target, service, method)`` issued
within ``window`` of each other are shipped as a single
``<method>_many`` RPC whose payload is the list of the batched calls'
argument tuples.

The server side of the contract (see ``GroupViewDatabase.commit_many``
and ``StoreHost.write_shadow_many``) is **per-item outcome demux**:
a ``_many`` handler returns one ``("ok", value)`` or
``("err", type_name, message)`` tuple per item, never letting one
item's exception abort the whole batch -- implemented once, in
:func:`demux`, which every ``_many`` handler hands its single-item
handler to (the ``batch-demux`` lint rule checks they do).  The
batcher demultiplexes that reply back
onto each caller's private future: an ``ok`` resolves it with the
value, an ``err`` fails it with the same
:class:`~repro.net.errors.RpcRemoteError` the unbatched call would
have produced.  One straggler's ABORT therefore never poisons its
batchmates, and every action's presumed-abort bookkeeping is untouched
-- each action still sees exactly the per-call verdicts it would have
seen unbatched, just cheaper on the wire and on the target's queue.

Whole-batch failures (timeout, fencing rejection, crashed coordinator)
fail every member with that one exception -- exactly what N unbatched
calls in flight to the same dark target would each have reported.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.net.errors import RpcRemoteError, RpcTimeout
from repro.net.rpc import RpcAgent
from repro.sim.futures import Future
from repro.sim.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler

BatchKey = tuple[str, str, str, "int | None"]


def demux(handler: Callable[..., Any], items: Iterable[tuple]) -> list[tuple]:
    """The server half of the contract: one outcome per batched call.

    Each item is one batched call's argument tuple; ``handler(*item)``
    is the unbatched single-item handler.  An item that raises (its
    own refusal, or a malformed tuple) reports ``("err", type_name,
    message)`` in its slot and its batchmates proceed untouched -- the
    coordinator-side :meth:`CommitBatcher._demux` turns each outcome
    back into exactly the verdict the unbatched call would have
    produced.
    """
    outcomes: list[tuple] = []
    for item in items:
        try:
            outcomes.append(("ok", handler(*item)))
        except Exception as exc:
            outcomes.append(("err", type(exc).__name__, str(exc)))
    return outcomes


class CommitBatcher:
    """Coalesces same-instant commit-plane RPCs per (target, method)."""

    def __init__(self, scheduler: Scheduler, rpc: RpcAgent,
                 window: float = 0.0,
                 metrics: MetricsRegistry | None = None) -> None:
        self._scheduler = scheduler
        self._rpc = rpc
        self.window = window
        self._queues: dict[BatchKey, list[tuple[tuple, Future]]] = {}
        # Bumped by reset(): a flush scheduled before a crash must not
        # fire against the recovered incarnation's fresh queues.
        self._generation = 0
        metrics = metrics or MetricsRegistry()
        self._flushes = metrics.counter("commit_batch.flushes")
        self._items = metrics.counter("commit_batch.items")
        self._batched_rpcs = metrics.counter("commit_batch.batched_rpcs")
        self._sizes = metrics.histogram("commit_batch.batch_size")

    def call(self, target: str, service: str, method: str, *args: Any,
             timeout: float | None = None,
             ring_epoch: int | None = None) -> Future:
        """Like ``rpc.call`` but batchable; returns this call's own future.

        Calls that land in the same ``window`` with the same
        ``(target, service, method, ring_epoch)`` share one
        ``<method>_many`` RPC; the returned future still settles with
        exactly this call's verdict.
        """
        future = Future(label=method)
        if not self._rpc.up:
            future.fail(RpcTimeout("local node is down"))
            return future
        key: BatchKey = (target, service, method, ring_epoch)
        queue = self._queues.get(key)
        if queue is None:
            self._queues[key] = [(tuple(args), future)]
            self._scheduler.schedule(self.window, self._flush, key,
                                     self._generation, timeout)
        else:
            queue.append((tuple(args), future))
        return future

    def reset(self) -> None:
        """Drop buffered calls; called when the owning node crashes.

        Buffered-but-unflushed futures fail like in-flight ones would:
        the caller processes died with the node, but any survivor sees
        the same timeout-equivalent error ``rpc.reset()`` gives.
        """
        queues, self._queues = self._queues, {}
        self._generation += 1
        for queue in queues.values():
            for _args, future in queue:
                future.try_fail(RpcTimeout("local node crashed"))

    # -- internals -----------------------------------------------------------

    def _flush(self, key: BatchKey, generation: int,
               timeout: float | None) -> None:
        if generation != self._generation:
            return  # scheduled before a crash: the batch died with it
        items = self._queues.pop(key, None)
        if not items:
            return
        target, service, method, ring_epoch = key
        self._flushes.value += 1
        self._sizes.observe(len(items))
        if len(items) == 1:
            # Alone in the window: ship the plain call, so batching off
            # the hot path costs nothing and needs no ``_many`` handler.
            args, future = items[0]
            self._rpc.call(target, service, method, *args, timeout=timeout,
                           ring_epoch=ring_epoch).add_callback(
                lambda f: self._settle_single(future, f))
            return
        self._items.value += len(items)
        self._batched_rpcs.value += 1
        payload = [args for args, _future in items]
        self._rpc.call(target, service, method + "_many", payload,
                       timeout=timeout, ring_epoch=ring_epoch).add_callback(
            lambda f: self._demux(items, f))

    @staticmethod
    def _settle_single(future: Future, rpc_future: Future) -> None:
        if rpc_future.failed:
            exception = rpc_future.exception()
            assert exception is not None
            future.try_fail(exception)
        else:
            future.try_resolve(rpc_future.result())

    @staticmethod
    def _demux(items: list[tuple[tuple, Future]],
               rpc_future: Future) -> None:
        """Settle each batched call's future from the ``_many`` reply."""
        if rpc_future.failed:
            # Whole-batch failure (timeout, fence, remote blow-up):
            # every member gets the verdict its own unbatched call to
            # the same target would have gotten.
            exception = rpc_future.exception()
            assert exception is not None
            for _args, future in items:
                future.try_fail(exception)
            return
        outcomes = rpc_future.result()
        if not isinstance(outcomes, (list, tuple)) \
                or len(outcomes) != len(items):
            mismatch = RpcRemoteError(
                "BatchProtocolError",
                f"_many reply carried {len(outcomes) if isinstance(outcomes, (list, tuple)) else '?'} "
                f"outcomes for {len(items)} requests")
            for _args, future in items:
                future.try_fail(mismatch)
            return
        for (_args, future), outcome in zip(items, outcomes):
            if outcome[0] == "ok":
                future.try_resolve(outcome[1])
            else:
                future.try_fail(RpcRemoteError(outcome[1], outcome[2]))
