"""Remote procedure calls over the simulated network.

One :class:`RpcAgent` lives on each node.  Callers get a
:class:`~repro.sim.futures.Future` that resolves with the reply value,
fails with :class:`~repro.net.errors.RpcRemoteError` if the remote handler
raised, or fails with :class:`~repro.net.errors.RpcTimeout` if no reply
arrives in time -- the caller cannot distinguish a crashed callee from a
slow one, which is precisely the fail-silent failure surface the paper's
protocols are designed around.

Handlers are methods on registered service objects.  A handler may:

- return a plain value -- the reply is sent after the agent's
  ``service_time`` processing delay; a node with a non-zero service
  time is a *single-server queue* (one CPU): concurrent requests are
  processed FIFO, so a hot node saturates and queueing delay grows
  with offered load -- the capacity model the sharded name service
  exists to relieve;
- return a generator -- it is spawned as a simulation process (so the
  handler can itself issue RPCs, sleep, etc.); the reply carries the
  process result.  This is how servers copy object state to remote
  object stores at commit time (paper section 4.2).

A handler sees its arguments and nothing else: the agent hands a
service no caller identity, so no service state can depend on which
host happened to send a request.

If the node crashes while a handler runs, the reply is never sent: the
agent checks its interface before emitting the reply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.demux import MessageDemux
from repro.net.errors import (
    RpcRemoteError,
    RpcTimeout,
    StaleRingEpoch,
    UnknownMethod,
    UnknownService,
)
from repro.net.message import Message
from repro.net.network import NetworkInterface
from repro.sim.events import Event
from repro.sim.futures import Future
from repro.sim.metrics import PlaneTraffic
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler

_request_ids = itertools.count(1)

REQUEST_KIND = "rpc.request"
REPLY_KIND = "rpc.reply"
# A pipelined frame: one wire message carrying several back-to-back
# requests from one caller to one target (see ``RpcAgent`` pipelining).
FRAME_KIND = "rpc.frame"


@dataclass(slots=True)
class RpcRequest:
    """Wire format of a call.

    ``ring_epoch`` is the optional fencing tag: the caller's view of
    the shard-ring epoch when it routed this request.  ``None`` means
    the caller is not fencing (single-node deployments, the
    replica-internal sync plane, probes); services registered with an
    epoch fence reject any *tagged* request whose epoch does not match
    their current one.
    """

    request_id: int
    service: str
    method: str
    args: tuple
    ring_epoch: int | None = None


@dataclass(slots=True)
class RpcReply:
    """Wire format of a reply: a value or a serialised remote error.

    ``ring_epoch`` carries the server's current ring epoch on a fencing
    rejection, so a stale caller learns how far behind it is without a
    second round trip.
    """

    request_id: int
    ok: bool
    value: Any = None
    error_type: str = ""
    error_message: str = ""
    ring_epoch: int | None = None


class RpcAgent:
    """Per-node RPC endpoint: issues calls and dispatches to services."""

    def __init__(
        self,
        scheduler: Scheduler,
        nic: NetworkInterface,
        default_timeout: float | None = None,
        service_time: float = 0.0,
        demux: "MessageDemux | None" = None,
        traffic: "PlaneTraffic | None" = None,
        pipeline: bool = False,
    ) -> None:
        self._scheduler = scheduler
        self._nic = nic
        # Optional per-plane accounting: every request/reply this agent
        # sends or receives is recorded against its (host, plane) pair.
        self._traffic = traffic
        if demux is not None:
            demux.route("rpc.", self._on_message)
        else:
            self._nic.on_message = self._on_message
        self.default_timeout = default_timeout if default_timeout is not None else 1.0
        self.service_time = service_time
        self._busy_until = 0.0  # single-server queue tail (service_time > 0)
        self._boot_epoch = 0    # bumped on reset(); orphans queued requests
        self._services: dict[str, object] = {}
        self._fences: dict[str, Callable[[], int]] = {}
        # In-flight calls: request id -> (reply future, timeout event).
        self._pending: dict[int, tuple[Future, Event]] = {}
        # Connection-level pipelining: with ``pipeline=True``, requests
        # issued back to back (same virtual instant) to one target are
        # buffered and shipped as a single FRAME_KIND message -- they
        # share one in-flight transmission (one latency draw) instead
        # of serialising on request/reply ping-pong.  Replies stay
        # individual, and each request keeps its own timeout timer and
        # its own service-time charge at the target, so the queueing
        # model is unchanged.
        self.pipeline = pipeline
        self._outbox: dict[str, list[RpcRequest]] = {}
        self.frames_sent = 0
        self.calls_issued = 0
        self.calls_served = 0
        self.calls_fenced = 0  # tagged requests rejected as stale

    @property
    def name(self) -> str:
        return self._nic.name

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler this agent's calls and timers run on."""
        return self._scheduler

    @property
    def up(self) -> bool:
        """Whether the owning node's interface is currently up."""
        return self._nic.up

    # -- service registry ----------------------------------------------------

    def register(self, service_name: str, provider: object,
                 fence: Callable[[], int] | None = None) -> None:
        """Expose ``provider``'s public methods under ``service_name``.

        ``fence`` arms epoch fencing for the service: a callable
        returning the server's *current* ring epoch, consulted at
        dispatch time (after any service-queue delay, so a request that
        queued across an epoch change is still caught).  A tagged
        request whose ``ring_epoch`` differs is rejected with
        :class:`~repro.net.errors.StaleRingEpoch` before the handler
        runs; untagged requests pass unfenced.  The fence must be
        re-supplied on every (re)registration -- a recovered host that
        re-registered without one would accept stale-ring traffic.
        """
        if service_name in self._services:
            raise ValueError(f"service already registered: {service_name!r}")
        self._services[service_name] = provider
        if fence is not None:
            self._fences[service_name] = fence

    def unregister(self, service_name: str) -> None:
        self._services.pop(service_name, None)
        self._fences.pop(service_name, None)

    def has_service(self, service_name: str) -> bool:
        return service_name in self._services

    def service(self, service_name: str) -> object | None:
        """The locally-registered provider object, or ``None``."""
        return self._services.get(service_name)

    def reset(self) -> None:
        """Drop volatile RPC state; called when the owning node crashes.

        Pending outbound calls are abandoned (their futures are failed so
        that any process which somehow survives sees a timeout-equivalent
        error immediately) and all services vanish with the node's
        volatile memory.
        """
        pending, self._pending = self._pending, {}
        for future, timer in pending.values():
            timer.cancel()
            future.try_fail(RpcTimeout("local node crashed"))
        # Buffered pipeline frames die with the node: their requests'
        # futures were already failed through ``_pending`` above, and
        # the boot-epoch bump makes any scheduled flush a no-op.
        self._outbox.clear()
        self._services.clear()
        self._fences.clear()  # re-armed by the boot hooks that re-register
        # The service queue dies with the node: requests already
        # scheduled against the old incarnation are orphaned by the
        # epoch bump (their _execute no-ops even if the node has
        # recovered by the time they fire).
        self._busy_until = 0.0
        self._boot_epoch += 1

    # -- client side ---------------------------------------------------------

    def call(self, target: str, service: str, method: str, *args: Any,
             timeout: float | None = None,
             ring_epoch: int | None = None) -> Future:
        """Invoke ``service.method(*args)`` on ``target``; returns a future.

        ``ring_epoch`` tags the request with the caller's ring view for
        epoch fencing; a fenced service rejects a mismatched tag with
        :class:`~repro.net.errors.StaleRingEpoch`.
        """
        # A static label: the f-string interpolation here was a
        # measurable per-call allocation at 10^5+ offered ops, and the
        # timeout error message below already names the full endpoint.
        future = Future(label=method)
        if not self._nic.up:
            future.fail(RpcTimeout("local node is down"))
            return future
        self.calls_issued += 1
        request_id = next(_request_ids)
        request = RpcRequest(request_id, service, method, args, ring_epoch)
        if self.pipeline:
            outbox = self._outbox.get(target)
            if outbox is None:
                self._outbox[target] = [request]
                self._scheduler.call_soon(self._flush_frame, target,
                                          self._boot_epoch)
            else:
                outbox.append(request)
        else:
            self._send(target, REQUEST_KIND, request)
        # The timer is cancelled by whichever of ``_complete`` and
        # ``reset`` takes the entry; ``_expire`` is the timer itself.
        self._pending[request_id] = (future, self._scheduler.schedule(
            self.default_timeout if timeout is None else timeout,
            self._expire, request, target))
        return future

    def _flush_frame(self, target: str, epoch: int) -> None:
        """Ship the requests buffered for ``target`` as one wire message.

        Runs at the same virtual instant the first buffered call was
        made (``call_soon``), after any further back-to-back calls have
        joined the frame.  A crash between buffering and flush bumps
        the boot epoch, so a stale flush sends nothing -- the buffered
        requests' futures were already failed by ``reset()``.
        """
        if epoch != self._boot_epoch:
            return
        requests = self._outbox.pop(target, None)
        if not requests or not self._nic.up:
            return  # went dark in-instant: the per-request timers expire
        if len(requests) == 1:
            # No peer in the frame: ship the plain request so single
            # calls look identical on the wire with pipelining on.
            self._send(target, REQUEST_KIND, requests[0])
            return
        self.frames_sent += 1
        self._send(target, FRAME_KIND, tuple(requests))

    def _send(self, target: str, kind: str, payload: Any) -> None:
        """Put one message on the wire, counted, and sized once for both
        ends' meters while the byte meter is armed."""
        if self._traffic is None:
            self._nic.send(target, kind, payload)
        elif self._nic.up:
            self._nic.send(target, kind, payload,
                           self._traffic.record_sent(payload))

    def _expire(self, request: RpcRequest, target: str) -> None:
        entry = self._pending.pop(request.request_id, None)
        if entry is not None:
            entry[0].try_fail(RpcTimeout(
                f"no reply from {target} for {request.service}.{request.method}"))

    # -- message handling ------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if self._traffic is not None:
            self._traffic.record_received(message.payload, message.size)
        if message.kind == REQUEST_KIND:
            self._serve(message.sender, message.payload)
        elif message.kind == REPLY_KIND:
            self._complete(message.payload)
        elif message.kind == FRAME_KIND:
            # A pipelined frame: unpack and serve each request in its
            # send order.  Service-time charges queue exactly as if the
            # requests had arrived as separate messages.
            for request in message.payload:
                self._serve(message.sender, request)

    def _complete(self, reply: RpcReply) -> None:
        entry = self._pending.pop(reply.request_id, None)
        if entry is None:
            return  # late reply to a call that already timed out
        future, timer = entry
        timer.cancel()
        if future.done:
            return
        if reply.ok:
            future.resolve(reply.value)
        elif reply.error_type == "StaleRingEpoch":
            # A fencing rejection is a typed routing verdict, not a
            # generic remote failure: surface it as its own exception
            # (carrying the server's epoch) so callers refresh their
            # ring view instead of failing over around a healthy host.
            future.fail(StaleRingEpoch(reply.error_message,
                                       server_epoch=reply.ring_epoch))
        else:
            future.fail(RpcRemoteError(reply.error_type, reply.error_message))

    # -- server side -------------------------------------------------------------

    def _serve(self, caller: str, request: RpcRequest) -> None:
        if self.service_time > 0:
            # One CPU: a request starts when the previous one finishes.
            now = self._scheduler.now
            start = max(now, self._busy_until)
            self._busy_until = start + self.service_time
            self._scheduler.schedule(self._busy_until - now, self._execute,
                                     caller, request, self._boot_epoch)
        else:
            self._execute(caller, request, self._boot_epoch)

    def _execute(self, caller: str, request: RpcRequest, epoch: int) -> None:
        if epoch != self._boot_epoch:
            return  # queued before a crash: the request died with the node
        if not self._nic.up:
            return  # crashed while the request sat in the service queue
        fence = self._fences.get(request.service)
        if fence is not None and request.ring_epoch is not None:
            current = fence()
            if request.ring_epoch != current:
                # Fenced before dispatch: the handler never ran, so the
                # caller can safely retry against a refreshed ring view
                # with no risk of a double-applied mutation here.
                self.calls_fenced += 1
                self._send(caller, REPLY_KIND, RpcReply(
                    request.request_id, False,
                    error_type="StaleRingEpoch",
                    error_message=(
                        f"{request.service}.{request.method}: request "
                        f"epoch {request.ring_epoch} != server epoch "
                        f"{current}"),
                    ring_epoch=current))
                return
        # Fenced requests are rejected pre-dispatch and deliberately not
        # counted as served.
        self.calls_served += 1
        provider = self._services.get(request.service)
        if provider is None:
            self._reply_error(caller, request, UnknownService(request.service))
            return
        handler = getattr(provider, request.method, None)
        if handler is None or not callable(handler) or request.method.startswith("_"):
            self._reply_error(caller, request, UnknownMethod(
                f"{request.service}.{request.method}"))
            return
        try:
            result = handler(*request.args)
        except Exception as exc:
            self._reply_error(caller, request, exc)
            return
        if _is_generator(result):
            process = self._scheduler.spawn(
                result, name=f"{self.name}:{request.service}.{request.method}")
            process.add_callback(lambda p: self._reply_process(caller, request, p))
        else:
            self._reply_ok(caller, request, result)

    def _reply_process(self, caller: str, request: RpcRequest, process: Process) -> None:
        if process.failed:
            exception = process.exception()
            assert exception is not None
            if isinstance(exception, Exception):
                self._reply_error(caller, request, exception)
            # Killed handlers (node crash) send nothing: fail-silence.
        else:
            self._reply_ok(caller, request, process.result())

    def _reply_ok(self, caller: str, request: RpcRequest, value: Any) -> None:
        if not self._nic.up:
            return
        self._send(caller, REPLY_KIND,
                   RpcReply(request.request_id, True, value))

    def _reply_error(self, caller: str, request: RpcRequest, exc: Exception) -> None:
        if not self._nic.up:
            return
        self._send(caller, REPLY_KIND, RpcReply(
            request.request_id, False,
            error_type=type(exc).__name__, error_message=str(exc)))


def _is_generator(value: Any) -> bool:
    return hasattr(value, "send") and hasattr(value, "throw")
