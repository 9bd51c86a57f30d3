"""Resource-lifecycle pass (LIFE001-LIFE006).

OFTT's middleware lives or dies by disciplined lifecycle management:
watchdogs deleted, heartbeat watches removed, reliable processes reaped
(§3).  A single leaked timer is invisible in one short scenario, but a
long chaos run fails over, restarts and tears down engines many times
in one kernel — N leaked timers drag the kernel queue and trace volume
for the rest of the run.  This pass proves statically that every
*acquire* has a matching *release* on a teardown path:

* Acquire→release **pairs** are declared in a checked-in manifest
  (``repro/analysis/lifecycle.manifest``).  Each pair names a resource
  kind (``timer``, ``watch``, ``process``, ``subscription``), the
  acquiring call and the release call(s) that balance it.
* Matching is per **owning class**: an acquisition made by a method of
  class ``C`` must have a release reachable — through
  :meth:`CallGraph.reach <repro.analysis.callgraph.CallGraph.reach>`,
  bounded by the same ``DEFAULT_MAX_K`` hop budget as the effects and hot
  passes — from one of ``C``'s declared *teardown methods*
  (``stop``/``shutdown``/``close``/``delete`` by default; the manifest
  can extend the set).
* Handle-style kinds (timer, process) track where the handle is stored:
  an acquisition stored on ``self`` needs a release that both calls the
  release method and references the same attribute.  Registration-style
  kinds (watch, subscription) need the release call on the same receiver
  chain (``self.monitor.watch`` → ``self.monitor.unwatch``).

Rules:

* LIFE001 ``leaked-timer`` / LIFE003 ``leaked-process`` — a handle
  stored on ``self`` (or a self-rescheduling loop that discards its
  handle) with no release reachable from any teardown method.
* LIFE002 ``leaked-watch`` / LIFE004 ``leaked-subscription`` — a
  registration with no matching de-registration reachable from teardown.
* LIFE005 ``rearm-without-cancel`` — re-assigning an attr-held handle
  without cancelling the previous one first (re-arming from inside the
  handle's own callback is exempt: that handle has already fired).
* LIFE006 ``unbounded-growth`` — a long-lived ``self`` container
  appended on a handler path (``on_*``/``_on_*`` methods, methods
  registered as callbacks, and their ``DEFAULT_MAX_K``-bounded callees)
  with no prune/clear/reassignment anywhere in the class.

Like every pass, findings respect ``# oftt-lint: ok[slug]`` suppressions
and reviewed-benign annotations double as documentation.  Known
imprecision (name-based acquire matching, flow-insensitive release
search, discarded one-shot timers assumed self-limiting) is catalogued
in ANALYSIS.md.
"""

from __future__ import annotations

import ast
import functools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import DEFAULT_MAX_K, CallGraph, Route
from repro.analysis.findings import AnalysisError, Finding, Severity, rule
from repro.analysis.program import Program
from repro.analysis.walker import GROWTH_CALLS, dotted_name, manifest_lines, parent_map, self_attr

LIFE_LEAKED_TIMER = rule(
    "LIFE001",
    "leaked-timer",
    Severity.WARNING,
    "life",
    "Timer handle acquired with no cancel reachable from any teardown method of the owning class.",
)
LIFE_LEAKED_WATCH = rule(
    "LIFE002",
    "leaked-watch",
    Severity.WARNING,
    "life",
    "Heartbeat watch registered with no unwatch reachable from any teardown method.",
)
LIFE_LEAKED_PROCESS = rule(
    "LIFE003",
    "leaked-process",
    Severity.WARNING,
    "life",
    "Process created and stored with no kill/exit/terminate reachable from any teardown method.",
)
LIFE_LEAKED_SUBSCRIPTION = rule(
    "LIFE004",
    "leaked-subscription",
    Severity.WARNING,
    "life",
    "Callback subscription with no unsubscribe/detach reachable from any teardown method.",
)
LIFE_REARM_WITHOUT_CANCEL = rule(
    "LIFE005",
    "rearm-without-cancel",
    Severity.WARNING,
    "life",
    "Attr-held handle reassigned without cancelling the previous one (outside its own callback).",
)
LIFE_UNBOUNDED_GROWTH = rule(
    "LIFE006",
    "unbounded-growth",
    Severity.WARNING,
    "life",
    "Long-lived self container appended on a handler path with no prune/clear anywhere in the class.",
)

#: The manifest shipped next to the pass; :func:`run` reads it.
DEFAULT_MANIFEST = os.path.join(os.path.dirname(__file__), "lifecycle.manifest")

#: kind -> (rule, style).  Handle-style resources are tracked by where
#: the returned handle is stored; registration-style resources by the
#: receiver chain the registration went through.
KINDS = {
    "timer": (LIFE_LEAKED_TIMER, "handle"),
    "watch": (LIFE_LEAKED_WATCH, "registration"),
    "process": (LIFE_LEAKED_PROCESS, "handle"),
    "subscription": (LIFE_LEAKED_SUBSCRIPTION, "registration"),
}

#: Teardown method names recognised without any manifest directive.
DEFAULT_TEARDOWNS = ("close", "delete", "shutdown", "stop")

#: Handler-method name prefixes recognised without a manifest directive.
DEFAULT_HANDLER_PREFIXES = ("on_", "_on_")

#: Container-mutating calls that count as a prune for LIFE006.
_PRUNE_CALLS = {"pop", "popleft", "clear", "remove", "discard"}


@dataclass(frozen=True)
class PairSpec:
    """One manifest ``pair`` line: an acquire→release contract."""

    kind: str  # key into KINDS
    owner: str  # declaring class, documentation + disambiguation
    acquire: str  # terminal call name that acquires
    qualifier: Optional[str]  # required trailing receiver attr (hook lists)
    releases: Tuple[str, ...]  # terminal call names that release


@dataclass(frozen=True)
class LifecycleSpec:
    """A parsed manifest: pairs plus naming conventions."""

    pairs: Tuple[PairSpec, ...]
    teardowns: Tuple[str, ...]
    handler_prefixes: Tuple[str, ...]


def load_manifest(path: str) -> LifecycleSpec:
    """Parse a lifecycle manifest; ``#`` comments and blank lines ignored.

    Grammar (one directive per line)::

        pair KIND OWNER.ACQUIRE -> RELEASE[, RELEASE...]
        pair KIND OWNER.ATTR.APPEND -> RELEASE[, ...]   # hook-list form
        teardown NAME[, NAME...]
        handler PREFIX[, PREFIX...]
    """
    pairs: List[PairSpec] = []
    teardowns: Set[str] = set(DEFAULT_TEARDOWNS)
    prefixes: List[str] = []
    for lineno, text in manifest_lines(path, "lifecycle"):
        directive, _, rest = text.partition(" ")
        rest = rest.strip()
        if directive == "pair":
            pairs.append(_parse_pair(path, lineno, rest))
        elif directive == "teardown":
            teardowns.update(_parse_names(path, lineno, rest))
        elif directive == "handler":
            prefixes.extend(_parse_names(path, lineno, rest))
        else:
            raise AnalysisError(
                f"{path}:{lineno}: unknown lifecycle directive {directive!r} "
                "(expected pair/teardown/handler)"
            )
    return LifecycleSpec(
        pairs=tuple(pairs),
        teardowns=tuple(sorted(teardowns)),
        handler_prefixes=tuple(prefixes) or DEFAULT_HANDLER_PREFIXES,
    )


def _parse_names(path: str, lineno: int, rest: str) -> List[str]:
    names = [token.strip() for token in rest.split(",") if token.strip()]
    if not names:
        raise AnalysisError(f"{path}:{lineno}: directive needs at least one name")
    return names


def _parse_pair(path: str, lineno: int, rest: str) -> PairSpec:
    head, arrow, tail = rest.partition("->")
    parts = head.split()
    if not arrow or len(parts) != 2:
        raise AnalysisError(
            f"{path}:{lineno}: bad pair spec {rest!r}; "
            "expected KIND OWNER.ACQUIRE -> RELEASE[, RELEASE...]"
        )
    kind, spec = parts
    if kind not in KINDS:
        raise AnalysisError(
            f"{path}:{lineno}: unknown resource kind {kind!r} (choose from {', '.join(sorted(KINDS))})"
        )
    components = spec.split(".")
    if len(components) < 2 or not all(components):
        raise AnalysisError(f"{path}:{lineno}: bad acquire spec {spec!r}; expected OWNER.ACQUIRE")
    releases = tuple(token.strip() for token in tail.split(",") if token.strip())
    if not releases:
        raise AnalysisError(f"{path}:{lineno}: pair {spec!r} declares no release")
    qualifier = components[-2] if len(components) >= 3 else None
    return PairSpec(
        kind=kind,
        owner=components[0],
        acquire=components[-1],
        qualifier=qualifier,
        releases=releases,
    )


# -- AST helpers -----------------------------------------------------------


def _call_terminal(call: ast.Call) -> Optional[Tuple[str, Optional[str]]]:
    """(terminal name, receiver chain text) of a call, None if unnamed."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr, dotted_name(func.value)
    if isinstance(func, ast.Name):
        return func.id, None
    return None


def _match_pair(call: ast.Call, pairs: Sequence[PairSpec]) -> Optional[Tuple[PairSpec, Optional[str]]]:
    """First manifest pair this call acquires, with its receiver chain."""
    terminal = _call_terminal(call)
    if terminal is None:
        return None
    name, chain = terminal
    for pair in pairs:
        if name != pair.acquire:
            continue
        if pair.qualifier is not None:
            if chain is None or chain.split(".")[-1] != pair.qualifier:
                continue
        return pair, chain
    return None


def _enclosing_stmt(node: ast.AST, parents: Dict[int, ast.AST]) -> Optional[ast.stmt]:
    while id(node) in parents:
        node = parents[id(node)]
        if isinstance(node, ast.stmt):
            return node
    return None


def _callback_args(call: ast.Call) -> List[str]:
    """Names of ``self.<method>`` arguments (callback registrations)."""
    names: List[str] = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        attr = self_attr(arg)
        if attr is not None:
            names.append(attr)
    return names


# -- per-function facts ----------------------------------------------------


@dataclass
class _FnFacts:
    """Release-relevant facts about one function body."""

    call_names: Set[str]  # terminal names of every named call
    call_chains: Dict[str, Set[str]]  # terminal name -> receiver chains seen
    attrs: Set[str]  # self.X referenced anywhere (any ctx)


def _fn_facts(node: ast.FunctionDef) -> _FnFacts:
    call_names: Set[str] = set()
    call_chains: Dict[str, Set[str]] = {}
    attrs: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            attr = self_attr(sub)
            if attr is not None:
                attrs.add(attr)
        if isinstance(sub, ast.Call):
            terminal = _call_terminal(sub)
            if terminal is not None:
                name, chain = terminal
                call_names.add(name)
                if chain is not None:
                    call_chains.setdefault(name, set()).add(chain)
    return _FnFacts(call_names, call_chains, attrs)


def _super_call_names(node: ast.FunctionDef) -> List[str]:
    """Method names invoked as ``super().name(...)`` in *node*."""
    names: List[str] = []
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and isinstance(sub.func.value, ast.Call)
            and isinstance(sub.func.value.func, ast.Name)
            and sub.func.value.func.id == "super"
        ):
            names.append(sub.func.attr)
    return names


# -- per-class analysis ----------------------------------------------------


class _ClassContext:
    """Everything the lifecycle rules need about one analysed class."""

    def __init__(
        self,
        graph: CallGraph,
        facts: Callable[[str], _FnFacts],  # function key -> its facts, memoized
        spec: LifecycleSpec,
        module: str,
        class_name: str,
        method_keys: List[str],
    ) -> None:
        self.graph = graph
        self.facts = facts
        self.spec = spec
        self.module = module
        self.class_name = class_name
        self.method_keys = method_keys  # own methods, source order
        #: Teardown methods (own or one level of bases), name -> key.
        self.teardowns: Dict[str, str] = {}
        #: Base-class methods entered via ``super().name()`` from a
        #: teardown override — the call graph cannot resolve super(), so
        #: the chained base teardown is added as an explicit root.
        self._super_roots: List[str] = []
        for name in spec.teardowns:
            key = graph.resolve_method(module, class_name, name)
            if key is not None:
                self.teardowns[name] = key
                for super_name in _super_call_names(graph.functions[key].node):
                    base_key = graph.resolve_in_bases(module, class_name, super_name)
                    if base_key is not None:
                        self._super_roots.append(base_key)
        self._teardown_reach: Optional[Dict[str, Route]] = None

    @property
    def teardown_reach(self) -> Dict[str, Route]:
        if self._teardown_reach is None:
            roots = [self.teardowns[name] for name in sorted(self.teardowns)]
            roots.extend(key for key in sorted(self._super_roots) if key not in roots)
            self._teardown_reach = self.graph.reach(roots)
        return self._teardown_reach

    def scan_summary(self) -> str:
        """How the release search was scoped, for finding messages."""
        if not self.teardowns:
            return (
                f"class {self.class_name} has no teardown method "
                f"({'/'.join(self.spec.teardowns)})"
            )
        names = ", ".join(sorted(self.teardowns))
        return f"searched teardown {names} and callees within k={DEFAULT_MAX_K}"

    def _release_route(self, matches) -> Optional[Route]:
        for key in sorted(self.teardown_reach):
            if matches(self.facts(key)):
                return self.teardown_reach[key]
        return None

    def stored_release_route(self, pair: PairSpec, attr: str) -> Optional[Route]:
        """Route to a reachable function releasing a stored handle.

        A function releases ``self.attr`` when it both calls one of the
        pair's release methods and references the attribute — covering
        ``self.kernel.cancel(self._timer)`` as well as
        ``self.watchdogs[name].delete()`` shapes.
        """

        def matches(facts: _FnFacts) -> bool:
            return attr in facts.attrs and any(name in facts.call_names for name in pair.releases)

        return self._release_route(matches)

    def registration_release_route(
        self, pair: PairSpec, chain: Optional[str]
    ) -> Optional[Route]:
        """Route to a reachable de-registration call.

        When the acquire went through a ``self.``-rooted chain, a
        release on a different ``self.``-rooted chain does not count
        (``self.monitor.watch`` is not balanced by ``self.queue.unsubscribe``);
        computed or non-self receivers match by release name alone.
        """
        self_rooted = chain is not None and chain.startswith("self.")

        def matches(facts: _FnFacts) -> bool:
            for name in pair.releases:
                if name not in facts.call_names:
                    continue
                chains = facts.call_chains.get(name, set())
                if not self_rooted:
                    return True
                if not chains:
                    return True  # computed receiver; accept by name
                if chain in chains or any(not c.startswith("self.") for c in chains):
                    return True
            return False

        return self._release_route(matches)

    def route_str(self, route: Route) -> str:
        return " -> ".join(self.graph.functions[key].short_name for key in route)


def _handler_keys(ctx: _ClassContext) -> Dict[str, str]:
    """Handler methods and their k-bounded callees: key -> why it is one."""
    roots: Dict[str, str] = {}
    registered: Set[str] = set()
    for key in ctx.method_keys:
        info = ctx.graph.functions[key]
        if info.short_name.startswith(tuple(ctx.spec.handler_prefixes)):
            roots[key] = f"handler {info.short_name}()"
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and _match_pair(node, ctx.spec.pairs) is not None:
                registered.update(_callback_args(node))
    for key in ctx.method_keys:
        info = ctx.graph.functions[key]
        if key not in roots and info.short_name in registered:
            roots[key] = f"callback {info.short_name}() registered in {ctx.class_name}"
    reach = ctx.graph.reach(sorted(roots))
    out: Dict[str, str] = {}
    for key, route in reach.items():
        if key in roots:
            out[key] = roots[key]
        elif key in ctx.method_keys:
            out[key] = f"{roots[route[0]]} via {ctx.route_str(route)}"
    return out


def _pruned_attrs(ctx: _ClassContext) -> Set[str]:
    """self attributes pruned anywhere in the class (own + one-level bases)."""
    pruned: Set[str] = set()
    keys = list(ctx.method_keys)
    for base in ctx.graph.bases.get((ctx.module, ctx.class_name), []):
        for _module, methods in ctx.graph.classes.get(base, []):
            keys.extend(methods.values())
    for key in keys:
        info = ctx.graph.functions.get(key)
        if info is None:
            continue
        in_init = info.short_name == "__init__"
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _PRUNE_CALLS:
                    attr = self_attr(node.func.value)
                    if attr is not None:
                        pruned.add(attr)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and _is_bounded_deque(node.value):
                    # A maxlen-bounded deque prunes itself on append.
                    for target in targets:
                        attr = self_attr(target)
                        if attr is not None:
                            pruned.add(attr)
                if in_init:
                    continue
                for target in targets:
                    attr = self_attr(target)
                    if attr is not None:
                        pruned.add(attr)  # rebinding resets the container
                    elif isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr is not None:
                            pruned.add(attr)  # includes self.x[:] = ... trims
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr is not None:
                            pruned.add(attr)
    return pruned


def _is_bounded_deque(value: ast.AST) -> bool:
    """``deque(..., maxlen=N)`` with a non-None bound."""
    if not isinstance(value, ast.Call):
        return False
    terminal = _call_terminal(value)
    if terminal is None or terminal[0] != "deque":
        return False
    for keyword in value.keywords:
        if keyword.arg == "maxlen":
            return not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            )
    return False


def _stored_attr(
    call: ast.Call, method: ast.FunctionDef, parents: Dict[int, ast.AST]
) -> Optional[Tuple[str, bool]]:
    """(attr, direct) when the call's result lands on ``self``.

    Direct means ``self.attr = acquire(...)`` (the shape LIFE005
    inspects); indirect covers subscript stores and stores through a
    local (``timer = acquire(...); self._pending[k] = (done, timer)``).
    """
    stmt = _enclosing_stmt(call, parents)
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1 or stmt.value is not call:
        return None
    target = stmt.targets[0]
    attr = self_attr(target)
    if attr is not None:
        return attr, True
    if isinstance(target, ast.Subscript):
        attr = self_attr(target.value)
        if attr is not None:
            return attr, False
    if isinstance(target, ast.Name):
        local = target.id
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                if not any(
                    isinstance(sub, ast.Name) and sub.id == local
                    for sub in ast.walk(node.value)
                ):
                    continue
                for tgt in node.targets:
                    attr = self_attr(tgt)
                    if attr is None and isinstance(tgt, ast.Subscript):
                        attr = self_attr(tgt.value)
                    if attr is not None:
                        return attr, False
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GROWTH_CALLS
                and any(isinstance(a, ast.Name) and a.id == local for a in node.args)
            ):
                attr = self_attr(node.func.value)
                if attr is not None:
                    return attr, False
    return None


# -- rule evaluation -------------------------------------------------------


def _check_class(ctx: _ClassContext, findings: List[Finding]) -> None:
    _check_acquires(ctx, findings)
    _check_growth(ctx, findings)


def _check_acquires(ctx: _ClassContext, findings: List[Finding]) -> None:
    for key in ctx.method_keys:
        info = ctx.graph.functions[key]
        method_name = info.short_name
        if method_name in ctx.spec.teardowns:
            continue  # a teardown re-acquiring is the restart path, not a leak
        parents = parent_map(info.node)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            match = _match_pair(node, ctx.spec.pairs)
            if match is None:
                continue
            pair, chain = match
            which, style = KINDS[pair.kind]
            if style == "handle":
                _check_handle_acquire(
                    ctx, findings, info, method_name, node, parents, pair, which
                )
            else:
                _check_registration_acquire(ctx, findings, info, node, pair, which, chain)


def _check_handle_acquire(ctx, findings, info, method_name, call, parents, pair, which) -> None:
    stored = _stored_attr(call, info.node, parents)
    releases = "/".join(pair.releases)
    if stored is None:
        # Discarded handle: only a self-rescheduling loop is reported —
        # a discarded one-shot is assumed self-limiting (ANALYSIS.md).
        if method_name in _callback_args(call):
            findings.append(
                Finding(
                    which,
                    info.path,
                    call.lineno,
                    call.col_offset,
                    f"self-rescheduling {pair.acquire}() loop in {method_name}() discards "
                    f"its handle; store it on self and {releases} it from a teardown "
                    f"method ({ctx.scan_summary()})",
                )
            )
        return
    attr, direct = stored
    leaked = False
    if ctx.teardowns and ctx.stored_release_route(pair, attr) is not None:
        pass  # balanced on a teardown path
    else:
        leaked = True
        findings.append(
            Finding(
                which,
                info.path,
                call.lineno,
                call.col_offset,
                f"self.{attr} holds a {pair.kind} handle from {pair.acquire}() with no "
                f"{releases} referencing it reachable from a teardown method "
                f"({ctx.scan_summary()})",
            )
        )
    if direct and not leaked and pair.kind == "timer":
        # Re-arm discipline is a timer concept: overwriting a process
        # handle models relaunch-after-death, not a dropped resource.
        _check_rearm(ctx, findings, info, method_name, call, pair, attr)


def _check_rearm(ctx, findings, info, method_name, call, pair, attr) -> None:
    """LIFE005 on ``self.attr = acquire(...)`` outside the handle's callback."""
    if method_name == "__init__":
        return  # first arming; nothing to cancel yet
    if method_name in _callback_args(call):
        return  # re-arm from inside the expired handle's own callback
    reach = ctx.graph.reach([info.key])
    for key in sorted(reach):
        facts = ctx.facts(key)
        if attr in facts.attrs and any(name in facts.call_names for name in pair.releases):
            return
    releases = "/".join(pair.releases)
    findings.append(
        Finding(
            LIFE_REARM_WITHOUT_CANCEL,
            info.path,
            call.lineno,
            call.col_offset,
            f"{method_name}() reassigns self.{attr} from {pair.acquire}() without "
            f"{releases} of the previous handle (none referencing self.{attr} in "
            f"{method_name}() or its callees within k={DEFAULT_MAX_K})",
        )
    )


def _check_registration_acquire(ctx, findings, info, call, pair, which, chain) -> None:
    if ctx.teardowns and ctx.registration_release_route(pair, chain) is not None:
        return
    receiver = f"{chain}.{pair.acquire}" if chain else f"{pair.acquire}"
    releases = "/".join(pair.releases)
    findings.append(
        Finding(
            which,
            info.path,
            call.lineno,
            call.col_offset,
            f"{receiver}() registration has no {releases} reachable from a teardown "
            f"method ({ctx.scan_summary()})",
        )
    )


def _check_growth(ctx: _ClassContext, findings: List[Finding]) -> None:
    handlers = _handler_keys(ctx)
    if not handlers:
        return
    pruned = _pruned_attrs(ctx)
    for key in ctx.method_keys:
        if key not in handlers:
            continue
        info = ctx.graph.functions[key]
        for node in ast.walk(info.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GROWTH_CALLS
            ):
                continue
            attr = self_attr(node.func.value)
            if attr is None or attr in pruned:
                continue
            findings.append(
                Finding(
                    LIFE_UNBOUNDED_GROWTH,
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"self.{attr} grows on a handler path ({handlers[key]}) with no "
                    f"prune/clear/reassignment anywhere in {ctx.class_name}",
                )
            )


# -- orchestration ---------------------------------------------------------


def _class_method_keys(graph: CallGraph) -> Dict[Tuple[str, str, str], List[str]]:
    """(path, module, class) -> own method keys in source order."""
    grouped: Dict[Tuple[str, str, str], List[str]] = {}
    for key in sorted(graph.functions):
        info = graph.functions[key]
        if info.class_name is None:
            continue
        grouped.setdefault((info.path, info.module, info.class_name), []).append(key)
    for keys in grouped.values():
        keys.sort(key=lambda k: graph.functions[k].node.lineno)
    return grouped


def run(program: Program) -> List[Finding]:
    """Pass entry point: LIFE001-006 under the shipped manifest."""
    return run_with_spec(program, load_manifest(DEFAULT_MANIFEST))


def run_with_spec(program: Program, spec: LifecycleSpec) -> List[Finding]:
    """Manifest-free entry point (tests pass a LifecycleSpec directly)."""
    graph = program.graph
    facts = functools.cache(lambda key: _fn_facts(graph.functions[key].node))
    findings: List[Finding] = []
    grouped = _class_method_keys(graph)
    for path, module, class_name in sorted(grouped):
        ctx = _ClassContext(graph, facts, spec, module, class_name, grouped[(path, module, class_name)])
        _check_class(ctx, findings)
    return findings
