"""The eight protocol-invariant checkers.

Each rule encodes one invariant this repo has already been burned by;
the docstrings cite the PR that paid for the lesson.  All checks are
purely syntactic (AST + a little constant folding), so they are fast,
deterministic, and runnable on any subtree -- the fixture corpus under
``tests/analysis/fixtures`` replays each historical bug against them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    chain_root,
    dotted,
    iter_functions,
    register,
)

SRC = ("src/repro/",)

# Service-name constants the fence rule resolves across modules.  (The
# linter never imports scanned code, so the two well-known names are
# pinned here; module-level string constants are folded per file.)
KNOWN_SERVICE_CONSTANTS = {
    "SERVICE_NAME": "group_view_db",
    "SYNC_SERVICE_NAME": "group_view_db_sync",
}


# -- rule 1: action-leak -----------------------------------------------------


def _last_segment(name: str | None) -> str:
    return (name or "").rsplit(".", 1)[-1]


def _is_action_creation(call: ast.Call) -> str | None:
    """Classify a call that begins an atomic action.

    Returns ``"top"`` for a creation the enclosing function owns and
    must terminate, ``"nested"`` for a child action the parent action
    resolves, ``None`` for anything else.  Factory helpers (methods
    named ``*_action``) are treated as top-level creations: the three
    binding schemes obtain their private database actions that way.
    """
    callee = _last_segment(dotted(call.func))
    if callee == "AtomicAction":
        has_parent = False
        independent = False
        for kw in call.keywords:
            if kw.arg == "parent" and not (isinstance(kw.value, ast.Constant)
                                           and kw.value.value is None):
                has_parent = True
            if kw.arg == "independent":
                independent = not (isinstance(kw.value, ast.Constant)
                                   and kw.value.value in (False, None))
        if has_parent and not independent:
            return "nested"
        return "top"
    if callee.endswith("_action") and not callee.startswith("__"):
        return "top"
    return None


def _routes_action(body: list[ast.stmt], var: str) -> bool:
    """Does this handler/finally body abort or release action ``var``?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            name = _last_segment(dotted(node.func))
            # var.abort(), or anything.run_local(var.abort())
            if attr == "abort" and chain_root(node.func) == var:
                return True
            # abort_on_failure(var), db.abort(var.id.path),
            # locks.release_all(var.id) -- termination through the
            # helper / lock / participant API.
            if name in ("abort", "abort_on_failure", "release", "release_all"):
                for arg in node.args:
                    if chain_root(arg) == var or (
                            isinstance(arg, ast.Name) and arg.id == var):
                        return True
            if attr == "run_local" and chain_root(node.func) == var:
                return True
    return False


_BROAD = {"BaseException"}
_NARROW = {"Exception"}


def _handler_breadth(handler: ast.ExceptHandler) -> str:
    """'broad' (bare / BaseException), 'narrow' (Exception), 'specific'."""
    if handler.type is None:
        return "broad"
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = {_last_segment(dotted(t)) for t in types}
    if names & _BROAD:
        return "broad"
    if names & _NARROW:
        return "narrow"
    return "specific"


def _is_termination_stmt(stmt: ast.stmt, var: str) -> bool:
    """``status = yield from var.commit()`` and friends are not risky."""
    value: ast.AST | None = None
    if isinstance(stmt, (ast.Expr, ast.Return)):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    if value is None:
        return False
    if isinstance(value, (ast.YieldFrom, ast.Await)):
        value = value.value
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        if value.func.attr in ("commit", "abort") and \
                chain_root(value.func) == var:
            return True
        if value.func.attr == "run_local" and chain_root(value.func) == var:
            return True
    return False


def _stmt_is_risky(stmt: ast.stmt, var: str) -> bool:
    """Can this (leaf) statement raise while ``var`` is live?

    Approximation: any statement containing a call, yield, await, or
    raise can fail; pure assignments and control-flow keywords cannot.
    Compound statements are judged on their header expressions only
    (their bodies are walked separately).
    """
    if _is_termination_stmt(stmt, var):
        return False
    headers: list[ast.AST | None]
    if isinstance(stmt, (ast.If, ast.While)):
        headers = [stmt.test]
    elif isinstance(stmt, ast.For):
        headers = [stmt.iter]
    elif isinstance(stmt, ast.With):
        headers = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        return False  # judged through its children
    else:
        headers = [stmt]
    for header in headers:
        if header is None:
            continue
        for node in ast.walk(header):
            if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom,
                                 ast.Await, ast.Raise)):
                return True
    return False


def _iter_region_statements(func: ast.AST, start_line: int,
                            end_line: int) -> Iterator[ast.stmt]:
    """Leaf-ish statements of ``func`` with start_line < lineno <= end_line.

    Handler and finally bodies are skipped: they are the cleanup paths
    themselves (judging them would demand a guard for the guard).
    """
    def walk(body: list[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in body:
            if not (start_line < stmt.lineno <= end_line
                    or (isinstance(stmt, (ast.If, ast.For, ast.While, ast.Try,
                                          ast.With))
                        and stmt.lineno <= end_line
                        and getattr(stmt, "end_lineno", stmt.lineno) > start_line)):
                continue
            if start_line < stmt.lineno <= end_line:
                yield stmt
            if isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, (ast.If,)):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.While)):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.With):
                yield from walk(stmt.body)
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield from walk(func.body)


@register
class ActionLeakRule(Rule):
    """abort-on-failure: a top-level action must terminate on EVERY path.

    PR 1 (cleanup daemon bypassing the action machinery), PR 2
    (``_include_guard`` leaking probe read locks on exception), and
    PR 3 (binding schemes leaking a private top-level action's locks on
    non-RpcError failures) were all this bug.  A function that begins a
    top-level :class:`AtomicAction` (directly or via a ``*_action``
    factory) must route every exception path through ``abort()`` or a
    lock release: a ``finally`` that terminates the action, or an
    ``except`` clause at least as broad as ``BaseException``.  A lone
    ``except Exception`` is flagged separately -- a ``KeyboardInterrupt``
    or other non-``Exception`` failure still leaks the live action's
    locks (``naming/reshard.py`` shows the correct pattern).
    """

    name = "action-leak"
    description = ("top-level AtomicActions must abort/release on every "
                   "exception path")
    include = SRC

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(module.tree):
            findings.extend(self._check_function(module, func))
        return findings

    def _check_function(self, module: ModuleSource,
                        func: ast.AST) -> Iterator[Finding]:
        creations: list[tuple[str, ast.Assign]] = []
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            # Only creations directly owned by this function (not by a
            # nested def, whose own visit judges them).
            owner = stmt
            while owner is not None and not isinstance(
                    owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = module.parents.get(owner)
            if owner is not func:
                continue
            if _is_action_creation(stmt.value) == "top":
                creations.append((target.id, stmt))

        for var, creation in creations:
            last_ref = creation.lineno
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and node.id == var:
                    last_ref = max(last_ref, node.lineno)
            unguarded: ast.stmt | None = None
            narrow: ast.ExceptHandler | None = None
            for stmt in _iter_region_statements(func, creation.lineno,
                                                last_ref):
                if not _stmt_is_risky(stmt, var):
                    continue
                level, handler = self._guard_level(module, func, stmt, var)
                if level == "none" and unguarded is None:
                    unguarded = stmt
                elif level == "narrow" and narrow is None:
                    narrow = handler
            if unguarded is not None:
                yield self.finding(
                    module, unguarded,
                    f"action '{var}' (begun at line {creation.lineno}) is "
                    f"live here with no abort on the exception path; wrap "
                    f"in try/finally or add 'except BaseException: "
                    f"abort; raise'",
                    ident=f"{var}:unguarded")
            elif narrow is not None:
                yield self.finding(
                    module, narrow,
                    f"action '{var}' (begun at line {creation.lineno}) is "
                    f"aborted only under 'except Exception'; a "
                    f"non-Exception failure (e.g. KeyboardInterrupt) leaks "
                    f"its locks -- catch BaseException or use finally",
                    ident=f"{var}:narrow-abort")

    def _guard_level(self, module: ModuleSource, func: ast.AST,
                     stmt: ast.stmt,
                     var: str) -> tuple[str, ast.ExceptHandler | None]:
        """Best protection of ``stmt``: 'full', 'narrow', or 'none'."""
        best = "none"
        best_handler: ast.ExceptHandler | None = None
        child: ast.AST = stmt
        parent = module.parents.get(child)
        while parent is not None and child is not func:
            if isinstance(parent, ast.Try):
                in_body = _contains(parent.body, child)
                in_orelse = _contains(parent.orelse, child)
                if in_body or in_orelse:
                    if parent.finalbody and _routes_action(parent.finalbody,
                                                           var):
                        return "full", None
                    if in_body:
                        for handler in parent.handlers:
                            if not _routes_action(handler.body, var):
                                continue
                            breadth = _handler_breadth(handler)
                            if breadth == "broad":
                                return "full", None
                            if breadth == "narrow" and best == "none":
                                best = "narrow"
                                best_handler = handler
            child = parent
            parent = module.parents.get(parent)
        return best, best_handler


def _contains(body: list[ast.stmt], node: ast.AST) -> bool:
    for stmt in body:
        if stmt is node:
            return True
        for sub in ast.walk(stmt):
            if sub is node:
                return True
    return False


# -- rule 2: lock-across-wire ------------------------------------------------


@register
class LockAcrossWireRule(Rule):
    """PR 5's stated invariant: no local lock is live across the wire.

    ``GroupViewDatabase.read_entry_versioned`` takes its probe
    try-locks and releases them *inside one RPC dispatch*; PR 5's
    release-mismatch bug leaked exactly such locks.  In a generator, a
    direct ``try_lock``/``lock`` acquisition followed by a ``yield
    rpc.call(...)`` suspension before the matching
    ``release``/``release_all`` means the lock is held while the
    process is parked on the network -- unbounded hold time, and a
    crashed peer turns it into a leak.  (Locks acquired *remotely* on
    behalf of a 2PC action are fine: the action machinery owns their
    lifetime.)
    """

    name = "lock-across-wire"
    description = ("no local try_lock may be held across a yield of an "
                   "RPC call")
    include = SRC

    _ACQUIRE = {"try_lock", "lock"}
    _RELEASE = {"release", "release_all"}

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(module.tree):
            acquires: list[ast.Call] = []
            releases: list[int] = []
            wire_yields: list[ast.expr] = []
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute):
                    if node.func.attr in self._ACQUIRE:
                        acquires.append(node)
                    elif node.func.attr in self._RELEASE:
                        releases.append(node.lineno)
                if isinstance(node, (ast.Yield, ast.YieldFrom)) and \
                        node.value is not None:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Call) and \
                                isinstance(sub.func, ast.Attribute) and \
                                sub.func.attr == "call":
                            wire_yields.append(node)
                            break
            for acquire in acquires:
                first_release = min((line for line in releases
                                     if line >= acquire.lineno),
                                    default=None)
                for wire in wire_yields:
                    if wire.lineno < acquire.lineno:
                        continue
                    if first_release is not None and \
                            wire.lineno > first_release:
                        continue
                    findings.append(self.finding(
                        module, wire,
                        f"lock acquired at line {acquire.lineno} is still "
                        f"held across this RPC suspension; release before "
                        f"yielding to the wire (locks must live and die "
                        f"inside one dispatch)",
                        ident=f"{dotted(acquire.func)}:across-wire"))
                    break
        return findings


# -- rule 3: fence-required --------------------------------------------------


@register
class FenceRequiredRule(Rule):
    """Routing-sensitive services must register with epoch fencing armed.

    PR 4's resync bug: ``ShardResyncManager``'s post-convergence
    re-registration of the client-facing ``group_view_db`` service
    dropped ``fence=``, letting a recovered host serve stale-ring
    traffic unchecked -- found only by a churn assertion.  Any
    ``register()`` of a ``group_view_db*`` service on the client plane
    must pass a non-None ``fence=``.  The sync side door
    (``group_view_db_sync``, or any registration on a ``sync_rpc``
    agent) is exempt by design: resync and migration must reach
    hosts the live ring does not own.
    """

    name = "fence-required"
    description = ("client-plane group_view_db registrations must arm "
                   "fence=")
    include = SRC

    def check(self, module: ModuleSource) -> list[Finding]:
        constants = _module_string_constants(module)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"):
                continue
            receiver = dotted(node.func.value) or ""
            if "sync_rpc" in receiver.split("."):
                continue
            service = self._resolve_service(module, node, constants)
            if service is None:
                continue
            if not service.startswith("group_view_db") or \
                    service.endswith("_sync"):
                continue
            fence = next((kw for kw in node.keywords if kw.arg == "fence"),
                         None)
            if fence is None:
                findings.append(self.finding(
                    module, node,
                    f"registration of routing-sensitive service "
                    f"{service!r} without fence=; a host serving this "
                    f"unfenced accepts stale-ring traffic unchecked",
                    ident=f"{service}:missing-fence"))
            elif isinstance(fence.value, ast.Constant) and \
                    fence.value.value is None:
                findings.append(self.finding(
                    module, node,
                    f"registration of routing-sensitive service "
                    f"{service!r} with fence=None disarms epoch fencing",
                    ident=f"{service}:fence-none"))
        return findings

    def _resolve_service(self, module: ModuleSource, call: ast.Call,
                         constants: dict[str, str]) -> str | None:
        if call.args:
            arg: ast.AST | None = call.args[0]
        else:
            arg = next((kw.value for kw in call.keywords
                        if kw.arg == "service"), None)
        return _fold_string(module, call, arg, constants)


def _module_string_constants(module: ModuleSource) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` plus the known cross-module names."""
    constants = dict(KNOWN_SERVICE_CONSTANTS)
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                isinstance(stmt.value, ast.Constant) and \
                isinstance(stmt.value.value, str):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


def _fold_string(module: ModuleSource, site: ast.AST, arg: ast.AST | None,
                 constants: dict[str, str], depth: int = 0) -> str | None:
    """Best-effort constant folding of a service-name expression.

    Handles string literals, module constants, the two well-known
    imported names, plain parameters with literal defaults, and
    ``self.x`` where ``__init__`` assigns ``self.x`` from a parameter
    with a resolvable default.
    """
    if arg is None or depth > 3:
        return None
    if isinstance(arg, ast.Constant):
        return arg.value if isinstance(arg.value, str) else None
    if isinstance(arg, ast.Name):
        if arg.id in constants:
            return constants[arg.id]
        default = _param_default(module, site, arg.id)
        if default is not None:
            return _fold_string(module, site, default, constants, depth + 1)
        return None
    if isinstance(arg, ast.Attribute) and \
            isinstance(arg.value, ast.Name) and arg.value.id == "self":
        return _self_attr_default(module, site, arg.attr, constants, depth)
    return None


def _param_default(module: ModuleSource, site: ast.AST,
                   name: str) -> ast.AST | None:
    """The default expression of parameter ``name`` in the enclosing def."""
    current = module.parents.get(site)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = current.args
            positional = args.posonlyargs + args.args
            defaults = args.defaults
            offset = len(positional) - len(defaults)
            for index, param in enumerate(positional):
                if param.arg == name and index >= offset:
                    return defaults[index - offset]
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if param.arg == name:
                    return default
            return None
        current = module.parents.get(current)
    return None


def _self_attr_default(module: ModuleSource, site: ast.AST, attr: str,
                       constants: dict[str, str],
                       depth: int) -> str | None:
    """Resolve ``self.attr`` via ``__init__``'s ``self.attr = param``."""
    current = module.parents.get(site)
    while current is not None and not isinstance(current, ast.ClassDef):
        current = module.parents.get(current)
    if current is None:
        return None
    init = next((n for n in current.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return None
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Attribute) and target.attr == attr and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                value = stmt.value
                if isinstance(value, ast.Constant) and \
                        isinstance(value.value, str):
                    return value.value
                if isinstance(value, ast.Name):
                    if value.id in constants:
                        return constants[value.id]
                    default = _param_default(module, stmt, value.id)
                    if default is not None:
                        return _fold_string(module, stmt, default, constants,
                                            depth + 1)
    return None


# -- rule 4: sync-plane ------------------------------------------------------


@register
class SyncPlaneRule(Rule):
    """Maintenance traffic stays on the sync plane.

    Every shard host's network is split into a client NIC and a
    dedicated ``.sync`` NIC precisely so resync, anti-entropy and
    migration copies never queue behind client requests -- and the
    *service* plane is split too, so simultaneously-recovering hosts
    cannot deadlock on each other's serving gates.  Inside the maintenance modules, a direct
    ``...rpc.call(...)`` or a ``client_for(...)`` client acquisition
    addresses the gated, fenced client plane: it deadlocks against
    recovery gates and steals client service time.  Use
    ``sync_rpc``/``sync_target``, or the engine's sync-plane calls
    (``diff_many``/``converge``), instead.
    """

    name = "sync-plane"
    description = ("maintenance modules must address the sync plane, "
                   "never the client agent")
    include = (
        "src/repro/naming/shard_resync.py",
        "src/repro/naming/reshard.py",
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "call":
                receiver = dotted(node.func.value) or ""
                parts = receiver.split(".")
                if "rpc" in parts and "sync_rpc" not in parts:
                    findings.append(self.finding(
                        module, node,
                        f"maintenance RPC sent over the client agent "
                        f"({receiver}); this queues behind client traffic "
                        f"and deadlocks against recovery gates -- use "
                        f"sync_rpc / sync_target",
                        ident=f"{receiver}:client-plane-call"))
            elif node.func.attr == "client_for":
                findings.append(self.finding(
                    module, node,
                    "maintenance code acquiring a client-plane db client "
                    "(client_for); use the engine's diff_many/converge "
                    "so probes and installs ride the sync side door",
                    ident="client_for:client-plane-client"))
        return findings


# -- rule 5: coherence-push --------------------------------------------------


def _self_attr_assignment(module: ModuleSource, site: ast.AST,
                          attr: str) -> ast.AST | None:
    """The expression ``__init__`` assigns to ``self.attr`` (same class)."""
    current = module.parents.get(site)
    while current is not None and not isinstance(current, ast.ClassDef):
        current = module.parents.get(current)
    if current is None:
        return None
    init = next((n for n in current.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return None
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Attribute) and target.attr == attr and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                return stmt.value
    return None


@register
class CoherencePushRule(Rule):
    """PR 8's invariant: the coherence plane never touches the client agent.

    The write-hot coherence plane is maintenance traffic end to end:
    lessee registrations, registry handovers, and the owner's pushed
    invalidations all exist precisely so the *client* plane sees fewer
    requests.  A registration RPC sent through the client agent queues
    behind the very flash crowd it is trying to thin and lands on the
    epoch-fenced, recovery-gated service (a mid-resync owner could
    never accept lessees); an invalidation multicast sent through the
    client NIC makes every push compete with the reads it is meant to
    save.  Inside the coherence module, every ``call``/``register``
    must ride a ``sync_rpc`` agent, and every multicast ``send`` must
    leave through a ``sync_mcast`` member (``self._mcast`` is resolved
    through ``__init__``, so aliasing does not hide the plane).
    Client-side *receive* membership on the primary NIC is exempt: a
    workstation has only one NIC, and joining a group sends nothing.
    """

    name = "coherence-push"
    description = ("coherence registrations and invalidation pushes must "
                   "ride the sync plane, never the client agent")
    include = ("src/repro/naming/coherence.py",)

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            receiver = dotted(node.func.value) or ""
            parts = receiver.split(".")
            if node.func.attr in ("call", "register"):
                if "rpc" in parts and "sync_rpc" not in parts:
                    findings.append(self.finding(
                        module, node,
                        f"coherence {node.func.attr} sent over the client "
                        f"agent ({receiver}); registrations and handovers "
                        f"are maintenance traffic -- use sync_rpc / "
                        f"sync_target",
                        ident=f"{receiver}:client-plane-{node.func.attr}"))
            elif node.func.attr == "send":
                if self._mcast_plane(module, node, parts) == "client":
                    findings.append(self.finding(
                        module, node,
                        f"invalidation push sent through a client-plane "
                        f"multicast member ({receiver}); pushes must leave "
                        f"through the owner's sync_mcast so they never "
                        f"queue behind client RPCs",
                        ident=f"{receiver}:client-plane-push"))
        return findings

    def _mcast_plane(self, module: ModuleSource, call: ast.Call,
                     parts: list[str]) -> str | None:
        """'sync', 'client', or None (receiver is not a multicast member)."""
        if "sync_mcast" in parts:
            return "sync"
        if "mcast" in parts:
            return "client"
        recv = call.func.value
        if isinstance(recv, ast.Attribute) and \
                isinstance(recv.value, ast.Name) and recv.value.id == "self":
            assigned = _self_attr_assignment(module, call, recv.attr)
            if assigned is not None:
                aliased = (dotted(assigned) or "").split(".")
                if "sync_mcast" in aliased:
                    return "sync"
                if "mcast" in aliased:
                    return "client"
        return None


# -- rule 6: batch-demux -----------------------------------------------------


@register
class BatchDemuxRule(Rule):
    """PR 9's invariant: batched commit-path RPCs demux outcomes per item.

    The :class:`~repro.net.batch.CommitBatcher` coalesces concurrent
    actions' same-phase 2PC calls into one ``<method>_many`` RPC, and
    the coordinator turns each per-item outcome back into exactly the
    verdict the unbatched call would have produced.  That only works if
    the server-side ``_many`` handler guards *each item* with its own
    try/except and reports ``("err", type, msg)`` in place: a single
    exception escaping the handler fails the whole RPC, which the demux
    must then spread to every member -- one refused prepare would abort
    its innocent batchmates' actions.  :func:`repro.net.batch.demux`
    is that guard written once: a handler that hands it its items
    holds the invariant by construction, and the helper's own loop is
    checked like any hand-rolled one.  The rule covers handlers whose
    base verb is commit-plane vocabulary (``prepare``/``commit``/
    ``abort``/``*shadow*``) and the exact verb ``read``: activation
    loads ride the batcher too, and a ``read_many`` that failed the
    whole batch on one missing uid would send every batchmate on to
    its next ``St`` host.  Read-plane ``_many`` sweeps
    (``read_entry_versioned_many``, ...) return plain value lists and
    may fail whole-batch by design -- a retried read sweep is
    harmless, a spread abort is not.
    """

    name = "batch-demux"
    description = ("commit-path _many handlers must report per-item "
                   "outcomes, never abort the batch on one exception")
    include = SRC

    _BATCHED_VERBS = ("prepare", "commit", "abort", "read")

    _HELPER = "demux"

    def _in_scope(self, name: str) -> bool:
        if name == self._HELPER:
            return True
        if not name.endswith("_many") or name.startswith("_"):
            return False
        base = name[:-len("_many")]
        return base in self._BATCHED_VERBS or "shadow" in base

    def _delegates(self, func: ast.AST, items: str) -> bool:
        """Whether ``func`` hands ``items`` to the ``demux`` helper."""
        return any(
            isinstance(node, ast.Call)
            and (dotted(node.func) or "").split(".")[-1] == self._HELPER
            and any(isinstance(arg, ast.Name) and arg.id == items
                    for arg in node.args)
            for node in ast.walk(func))

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(module.tree):
            if not self._in_scope(func.name):
                continue
            params = [a.arg for a in (func.args.posonlyargs + func.args.args)
                      if a.arg != "self"]
            if not params:
                continue
            # A handler's batch is its first parameter; the helper
            # takes the single-item handler first and the batch last.
            items = params[-1] if func.name == self._HELPER else params[0]
            loops = [node for node in ast.walk(func)
                     if isinstance(node, (ast.For, ast.AsyncFor))
                     and isinstance(node.iter, ast.Name)
                     and node.iter.id == items]
            guarded = self._delegates(func, items)
            for loop in loops:
                for stmt in loop.body:
                    for node in ast.walk(stmt):
                        if not isinstance(node, ast.Try) or not node.handlers:
                            continue
                        for handler in node.handlers:
                            if any(isinstance(sub, ast.Raise)
                                   for sub in ast.walk(handler)):
                                findings.append(self.finding(
                                    module, handler,
                                    f"per-item handler in {func.name} "
                                    f"re-raises; the whole batch RPC fails "
                                    f"and every batchmate's action aborts "
                                    f"with it -- append an ('err', ...) "
                                    f"outcome instead",
                                    ident=f"{func.name}:handler-reraises"))
                            else:
                                guarded = True
            if not guarded and not any(
                    f.symbol.endswith(func.name) for f in findings):
                findings.append(self.finding(
                    module, func,
                    f"batched commit-path handler {func.name} has no "
                    f"per-item try/except over {items!r}; one bad item "
                    f"aborts every batchmate's action -- hand the items to "
                    f"net.batch.demux, or loop over them and report "
                    f"('ok', ...) / ('err', type, msg) per entry",
                    ident=f"{func.name}:no-item-guard"))
        return findings


# -- rule 7: determinism -----------------------------------------------------


@register
class DeterminismRule(Rule):
    """Seeded simulation stays reproducible: no ambient clock or RNG.

    Every run derives from one root seed (``sim/rng.py``) and one
    virtual clock (``scheduler.now``); the churn harnesses and the CI
    perf gate both depend on replayable runs.  ``time.time()``,
    ``random.*``, and ``datetime.now()`` smuggle wall-clock state into
    the simulation -- draws change per run and per machine.  Only
    ``sim/rng.py`` may touch ``random`` (it wraps ``random.Random``
    behind the seed-derivation scheme); benchmarks measure real wall
    clock *outside* the simulated world and are exempt.
    """

    name = "determinism"
    description = ("no time.time/random.*/datetime.now outside sim/rng.py")
    include = ("src/repro/", "examples/")
    exclude = ("src/repro/sim/rng.py",)

    _TIME_ATTRS = {"time", "monotonic", "perf_counter", "time_ns",
                   "monotonic_ns", "perf_counter_ns"}
    _DATETIME_ATTRS = {"now", "utcnow", "today"}
    _BANNED_IMPORTS = {
        "time": _TIME_ATTRS,
        "random": {"random", "randint", "randrange", "choice", "choices",
                   "shuffle", "sample", "uniform", "expovariate", "gauss",
                   "seed", "getrandbits"},
        "datetime": _DATETIME_ATTRS,
    }

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                base, attr = node.value.id, node.attr
                banned = (
                    (base == "time" and attr in self._TIME_ATTRS)
                    or (base == "random")
                    or (base in ("datetime", "date")
                        and attr in self._DATETIME_ATTRS)
                )
                if banned:
                    findings.append(self.finding(
                        module, node,
                        f"nondeterministic source {base}.{attr}; draw time "
                        f"from scheduler.now and randomness from "
                        f"sim/rng.py's SeededRng so seeded runs replay",
                        ident=f"{base}.{attr}"))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Attribute) and \
                    isinstance(node.value.value, ast.Name) and \
                    node.value.value.id == "datetime" and \
                    node.attr in self._DATETIME_ATTRS:
                findings.append(self.finding(
                    module, node,
                    f"nondeterministic source datetime.{node.value.attr}."
                    f"{node.attr}; use scheduler.now",
                    ident=f"datetime.{node.value.attr}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module in self._BANNED_IMPORTS:
                banned_names = self._BANNED_IMPORTS[node.module]
                for alias in node.names:
                    if alias.name in banned_names:
                        findings.append(self.finding(
                            module, node,
                            f"importing {alias.name!r} from "
                            f"{node.module!r} pulls a nondeterministic "
                            f"source into the simulation",
                            ident=f"import:{node.module}.{alias.name}"))
        return findings


# -- rule 8: seeded-backoff --------------------------------------------------


@register
class SeededBackoffRule(Rule):
    """PR 10's invariant: backoff sleeps carry seeded jitter.

    The gray-failure work gave the 2PC prepare leg bounded retries.  An
    *unjittered* exponential backoff retries in lockstep: every client
    that lost the same race sleeps the same ``backoff * 2**attempt``
    and collides again on the exact tick it collided before -- in a
    discrete-event simulator the herd never disperses, because there is
    no ambient noise to break the tie.  And jitter drawn from
    ``random.*`` breaks seeded replay (the determinism rule bans the
    *source*; this rule bans the *shape*).  So: any ``Timeout`` whose
    delay derives from a ``*backoff*`` quantity must mix in a draw from
    a ``sim/rng.py`` seeded stream (a call on an ``rng``-named
    receiver), either inline or folded into the delay variable before
    the yield (``delay += rng.uniform(0.0, delay)``).
    """

    name = "seeded-backoff"
    description = ("backoff retry sleeps must add jitter drawn from a "
                   "seeded rng stream, never lockstep or random.*")
    include = SRC

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(module.tree):
            findings.extend(self._check_function(module, func))
        return findings

    @staticmethod
    def _mentions_backoff(node: ast.AST, backoff_vars: set[str]) -> str | None:
        """The backoff-ish identifier ``node`` references, if any."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and (
                    "backoff" in sub.id.lower() or sub.id in backoff_vars):
                return sub.id
            if isinstance(sub, ast.Attribute) and \
                    "backoff" in sub.attr.lower():
                return dotted(sub) or sub.attr
        return None

    @staticmethod
    def _has_rng_draw(node: ast.AST) -> bool:
        """Does ``node`` contain a call on an rng-named receiver?"""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute):
                receiver = dotted(sub.func.value) or ""
                if any("rng" in part.lower()
                       for part in receiver.split(".")):
                    return True
        return False

    @staticmethod
    def _has_ambient_draw(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    chain_root(sub.func) == "random":
                return True
        return False

    def _check_function(self, module: ModuleSource,
                        func: ast.AST) -> Iterator[Finding]:
        # Local dataflow over simple-name assignments: which variables
        # derive from a backoff quantity, and which have had jitter (or
        # an ambient draw) folded into them.  Fixed point so chained
        # assignments resolve regardless of lexical order.
        backoff_vars: set[str] = set()
        jittered_vars: set[str] = set()
        ambient_vars: set[str] = set()
        nodes = list(ast.walk(func))
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    targets = [t for t in node.targets
                               if isinstance(t, ast.Name)]
                    value: ast.AST = node.value
                elif isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name):
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                for target in targets:
                    if self._mentions_backoff(value, backoff_vars) and \
                            target.id not in backoff_vars:
                        backoff_vars.add(target.id)
                        changed = True
                    if self._has_rng_draw(value) and \
                            target.id not in jittered_vars:
                        jittered_vars.add(target.id)
                        changed = True
                    if self._has_ambient_draw(value) and \
                            target.id not in ambient_vars:
                        ambient_vars.add(target.id)
                        changed = True

        for node in nodes:
            if not (isinstance(node, ast.Call)
                    and _last_segment(dotted(node.func)) == "Timeout"
                    and node.args):
                continue
            delay = node.args[0]
            backoff_ref = self._mentions_backoff(delay, backoff_vars)
            if backoff_ref is None:
                continue
            names = {sub.id for sub in ast.walk(delay)
                     if isinstance(sub, ast.Name)}
            if self._has_ambient_draw(delay) or names & ambient_vars:
                yield self.finding(
                    module, node,
                    f"backoff sleep on {backoff_ref!r} jitters from "
                    f"random.*; ambient draws break seeded replay -- "
                    f"draw from a sim/rng.py substream instead",
                    ident=f"{backoff_ref}:ambient-jitter")
            elif not (self._has_rng_draw(delay) or names & jittered_vars):
                yield self.finding(
                    module, node,
                    f"backoff sleep on {backoff_ref!r} has no seeded "
                    f"jitter; lockstep retries re-collide forever in a "
                    f"deterministic simulator -- add "
                    f"rng.uniform(0.0, delay) to the Timeout",
                    ident=f"{backoff_ref}:unjittered")
