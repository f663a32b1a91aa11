"""Client-side group invocation for active replication.

The client multicasts an invocation to the replica group (figure 1's
``GA -> GB`` pattern) and collects unicast replies from the members.
With the reliable ordered multicast member, every functioning replica
receives every invocation in the same order; the naive member exposes
the divergence failure mode the paper warns about.

The invoker reports *which* members answered: it returns as soon as
every member of the view it multicast to has replied, and otherwise
when the reply window closes -- the window is what a silent member
costs, not what every invocation pays.  Silent members are presumed
failed and the replication policy breaks their bindings (they are never
repaired within the action, per section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.cluster.node import Node
from repro.cluster.server_host import GROUP_REPLY_KIND, group_name_for
from repro.net.groups import GroupView
from repro.net.message import Message
from repro.sim.events import Event
from repro.sim.futures import Future
from repro.storage.uid import Uid

_request_ids = itertools.count(1)


@dataclass
class GroupInvokeResult:
    """Replies collected within the window."""

    responders: list[str] = field(default_factory=list)
    values: dict[str, Any] = field(default_factory=dict)
    errors: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def any_success(self) -> bool:
        return any(host not in self.errors for host in self.responders)

    def first_value(self) -> Any:
        for host in self.responders:
            if host not in self.errors:
                return self.values[host]
        raise KeyError("no successful reply")

    def first_error(self) -> tuple[str, str]:
        for host in self.responders:
            if host in self.errors:
                return self.errors[host]
        raise KeyError("no error reply")


class GroupInvoker:
    """Issues multicast invocations and matches member replies."""

    def __init__(self, node: Node) -> None:
        self._node = node
        node.demux.route("ginv.", self._on_message)
        # Open invocations: request id -> (result so far, members still
        # to answer, the future ``invoke`` waits on, the window timer).
        self._open: dict[int, tuple[GroupInvokeResult, set[str], Future,
                                    Event]] = {}

    def invoke(self, members: list[str], uid: Uid,
               action_path: tuple[int, ...], op: str, args: tuple,
               window: float | None = None) -> Generator[Any, Any, GroupInvokeResult]:
        """Multicast ``op`` to the replica group; collect the replies.

        Returns once every member has answered, or when the reply
        window closes on those that have.  ``members`` must equal the
        view the servers joined (the bound hosts); the first member
        acts as sequencer.
        """
        request_id = next(_request_ids)
        result = GroupInvokeResult()
        closed = Future(label=f"ginv:{uid}.{op}")
        deadline = window if window is not None else self._node.rpc.default_timeout
        self._open[request_id] = (
            result, set(members), closed,
            self._node.scheduler.schedule(deadline, self._close, request_id))
        payload = {
            "request_id": request_id,
            "reply_to": self._node.name,
            "client_ref": self._node.outcomes.ref,
            "action_path": tuple(action_path),
            "uid": str(uid),
            "op": op,
            "args": tuple(args),
        }
        view = GroupView(tuple(members))
        self._node.mcast.send(group_name_for(uid), view, payload)
        yield closed
        return result

    def _close(self, request_id: int) -> None:
        entry = self._open.pop(request_id, None)
        if entry is not None:
            _result, _awaited, closed, timer = entry
            timer.cancel()
            closed.try_resolve(None)

    def _on_message(self, message: Message) -> None:
        if message.kind != GROUP_REPLY_KIND:
            return
        reply = message.payload
        entry = self._open.get(reply["request_id"])
        if entry is None:
            return  # reply after the invocation closed
        result, awaited = entry[:2]
        member = reply["member"]
        if member not in awaited:
            return  # a duplicate, or a sender outside the multicast view
        awaited.remove(member)
        result.responders.append(member)
        if reply.get("ok"):
            result.values[member] = reply.get("value")
        else:
            result.errors[member] = (reply.get("error_type", ""),
                                     reply.get("error_message", ""))
        if not awaited:
            self._close(reply["request_id"])
