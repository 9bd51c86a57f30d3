"""Hot-path allocation/complexity pass (HOT001-HOT006).

The sim kernel drain loop, the trace emit/fingerprint path, and the
network delivery path run once *per simulated event* — 200k+ times in a
single bench run.  Waste that is invisible in cold code (a fresh constant
list, an eager f-string, a linear scan over a structure that grows with
event count) multiplies into the top line of ``oftt-bench``.  This pass
makes hotness a checked property instead of tribal knowledge:

* Hot **roots** are declared in a checked-in manifest
  (``repro/analysis/hotpath.manifest``).  Each line is
  ``MODULE:QUALNAME`` — the module may be a dotted suffix so the same
  manifest works regardless of the invocation directory.
* Hotness propagates through :meth:`CallGraph.reach
  <repro.analysis.callgraph.CallGraph.reach>`, bounded by the same
  ``DEFAULT_MAX_K`` budget as the effects pass: any function reachable
  from a root within that many call hops is hot.
  Roots that match nothing in the analysed file set are inert (the
  manifest describes the whole project; a partial lint sees a subset).
* Over hot functions only, six rules flag per-event waste (HOT001-006
  below).  Findings carry the propagation route ("hot via
  ``Network.send -> Network.usable_path``") so a reviewer can judge whether
  the path is genuinely hot before fixing or annotating.

Like every pass, findings respect ``# oftt-lint: ok[slug]`` suppressions
and the reviewed-benign annotations double as documentation of why the
code is the way it is.  Known imprecision is catalogued in ANALYSIS.md.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, Route
from repro.analysis.findings import AnalysisError, Finding, Severity, rule
from repro.analysis.program import Program
from repro.analysis.walker import GROWTH_CALLS, manifest_lines, parent_map, self_attr

HOT_FRESH_CONTAINER = rule(
    "HOT001",
    "hot-fresh-container",
    Severity.WARNING,
    "hot",
    "Constant container literal rebuilt on every call of a hot function; hoist to a module constant.",
)
HOT_EAGER_FORMAT = rule(
    "HOT002",
    "hot-eager-format",
    Severity.WARNING,
    "hot",
    "String formatted eagerly in a hot function but only consumed conditionally; build it where it is used.",
)
HOT_LINEAR_SCAN = rule(
    "HOT003",
    "hot-linear-scan",
    Severity.WARNING,
    "hot",
    "O(n) scan per event over a structure that grows with event count (membership, sorted(), full materialization).",
)
HOT_UNMEMOIZED_HEAVY = rule(
    "HOT004",
    "hot-unmemoized-heavy",
    Severity.WARNING,
    "hot",
    "deepcopy/json/pickle/hashlib invoked per event without a memo guard on an immutable carrier.",
)
HOT_NO_SLOTS = rule(
    "HOT005",
    "hot-no-slots",
    Severity.WARNING,
    "hot",
    "Class instantiated in a hot function lacks __slots__ (dataclasses: slots=True); each instance pays a dict.",
)
HOT_AMBIENT_RELOOKUP = rule(
    "HOT006",
    "hot-ambient-relookup",
    Severity.WARNING,
    "hot",
    "Invariant module attribute or self attribute re-looked-up per event in a hot function; bind it to a local.",
)

#: The manifest shipped next to the pass; :func:`run` reads it.
DEFAULT_MANIFEST = os.path.join(os.path.dirname(__file__), "hotpath.manifest")

#: Fully-resolved callables HOT004 treats as heavy per-event work.
_HEAVY_CALLS = {
    "copy.deepcopy",
    "json.dumps",
    "json.loads",
    "pickle.dumps",
    "pickle.loads",
}
_HEAVY_PREFIXES = ("hashlib.",)

#: Base-class names whose subclasses HOT005 leaves alone: exceptions are
#: built on the raise path, and Enum/NamedTuple manage their own layout.
_SLOTLESS_BASES = ("Error", "Exception", "Enum", "NamedTuple", "Protocol")


@dataclass(frozen=True)
class RootSpec:
    """One manifest line: a function declared hot by fiat."""

    module: str  # dotted module path, matched exactly or as a suffix
    qualname: str  # "Class.method" or "function"


def load_manifest(path: str) -> List[RootSpec]:
    """Parse a hot-root manifest; ``#`` comments and blank lines ignored."""
    specs: List[RootSpec] = []
    for lineno, text in manifest_lines(path, "hot-root"):
        module, sep, qualname = text.partition(":")
        module = module.strip()
        qualname = qualname.strip()
        if not sep or not module or not qualname:
            raise AnalysisError(
                f"{path}:{lineno}: bad hot-root spec {text!r}; expected MODULE:QUALNAME"
            )
        specs.append(RootSpec(module, qualname))
    return specs


def _module_matches(module: str, spec_module: str) -> bool:
    return module == spec_module or module.endswith("." + spec_module)


def resolve_roots(graph: CallGraph, specs: Sequence[RootSpec]) -> List[str]:
    """Function keys for every manifest spec present in the analysed set."""
    roots: List[str] = []
    seen: Set[str] = set()
    for key in sorted(graph.functions):
        info = graph.functions[key]
        for spec in specs:
            if info.qualname == spec.qualname and _module_matches(info.module, spec.module):
                if key not in seen:
                    seen.add(key)
                    roots.append(key)
                break
    return roots


def _route_str(route: Route, graph: CallGraph) -> str:
    if len(route) == 1:
        return "declared hot root"
    names = " -> ".join(graph.functions[key].qualname for key in route)
    return f"hot via {names}"


# -- AST helpers -----------------------------------------------------------


def _ancestors(node: ast.AST, parents: Dict[int, ast.AST]) -> Iterator[ast.AST]:
    while id(node) in parents:
        node = parents[id(node)]
        yield node


def _under_raise(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    return any(isinstance(a, ast.Raise) for a in _ancestors(node, parents))


def _body_walk(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk the function *body* only (skips decorators/annotations/defaults)."""
    for stmt in func.body:
        yield from ast.walk(stmt)


# -- per-rule checks -------------------------------------------------------


def _constant_container(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.List, ast.Set)):
        if node.elts and all(isinstance(e, ast.Constant) for e in node.elts):
            return "list" if isinstance(node, ast.List) else "set"
    elif isinstance(node, ast.Dict):
        if (
            node.keys
            and all(k is not None and isinstance(k, ast.Constant) for k in node.keys)
            and all(isinstance(v, ast.Constant) for v in node.values)
        ):
            return "dict"
    return None


def _check_fresh_containers(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    for node in _body_walk(ctx.func):
        kind = _constant_container(node)
        if kind is None or _under_raise(node, ctx.parents):
            continue
        findings.append(
            ctx.finding(
                HOT_FRESH_CONTAINER,
                node,
                f"constant {kind} literal rebuilt every call; hoist to a module constant",
            )
        )


def _is_format_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(v, ast.FormattedValue) for v in node.values)
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
    ):
        return True
    return False


def _conditional_use(load: ast.AST, assign: ast.Assign, parents: Dict[int, ast.AST]) -> bool:
    """Whether *load* sits on a branch the *assign* is not already on."""
    assign_line = {id(assign)}
    assign_line.update(id(a) for a in _ancestors(assign, parents))
    child: ast.AST = load
    for parent in _ancestors(load, parents):
        if isinstance(parent, ast.Raise):
            return True
        if isinstance(parent, (ast.If, ast.IfExp)) and id(parent) not in assign_line:
            if child is not parent.test:
                return True
        child = parent
    return False


def _check_eager_format(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    func = ctx.func
    assigns: List[Tuple[str, ast.Assign]] = []
    stores: Dict[str, int] = {}
    for node in _body_walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            stores[node.id] = stores.get(node.id, 0) + 1
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_format_expr(node.value)
        ):
            assigns.append((node.targets[0].id, node))
    for name, assign in assigns:
        if stores.get(name, 0) != 1:
            continue  # rebound elsewhere; the dataflow is not obvious
        loads = [
            node
            for node in _body_walk(func)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        ]
        if loads and all(_conditional_use(load, assign, ctx.parents) for load in loads):
            findings.append(
                ctx.finding(
                    HOT_EAGER_FORMAT,
                    assign,
                    f"{name!r} is formatted every call but only used conditionally; "
                    "build it inside the branch that needs it",
                )
            )


def _returns_list(info: FunctionInfo) -> bool:
    for node in ast.walk(info.node):
        if isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if isinstance(value, (ast.ListComp, ast.List)):
                return True
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "sorted")
            ):
                return True
    return False


def _peek_only_use(load: ast.Name, parents: Dict[int, ast.AST]) -> bool:
    """True when the use only needs the head/tail/length/truth of the list."""
    parent = parents.get(id(load))
    if isinstance(parent, ast.Subscript) and parent.value is load:
        return isinstance(parent.slice, (ast.Constant, ast.UnaryOp))
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "len"
        and parent.args
        and parent.args[0] is load
    ):
        return True
    if isinstance(parent, (ast.If, ast.While)) and parent.test is load:
        return True
    if isinstance(parent, ast.IfExp) and parent.test is load:
        return True
    if isinstance(parent, ast.BoolOp):
        return True
    if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
        return True
    return False


def _check_linear_scans(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    growing = ctx.growing_attrs
    # (a) membership tests against a growing list attribute.
    for node in _body_walk(ctx.func):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for comparator in node.comparators:
                attr = self_attr(comparator)
                if attr in growing:
                    findings.append(
                        ctx.finding(
                            HOT_LINEAR_SCAN,
                            node,
                            f"membership test scans self.{attr}, which grows with event "
                            "count; use a set (or an index) for O(1) lookups",
                        )
                    )
        # (b) per-call sorted()/full iteration over a growing attribute.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and node.args
        ):
            target = node.args[0]
            attr = self_attr(target)
            if attr is None and isinstance(target, ast.Call):
                attr = self_attr(
                    target.func.value if isinstance(target.func, ast.Attribute) else target.func
                )
            if attr in growing:
                findings.append(
                    ctx.finding(
                        HOT_LINEAR_SCAN,
                        node,
                        f"sorted() over self.{attr} re-sorts the whole structure every "
                        "call; keep it ordered incrementally (heap/insort)",
                    )
                )
        if isinstance(node, ast.For):
            attr = self_attr(node.iter)
            if attr in growing:
                findings.append(
                    ctx.finding(
                        HOT_LINEAR_SCAN,
                        node.iter,
                        f"full iteration over self.{attr} per call; it grows with event "
                        "count — iterate only the new tail or keep a running aggregate",
                    )
                )
    # (c) materializing a list-returning helper only to peek at it.
    _check_materialized_helpers(ctx, findings)


def _list_returning_call(ctx: "_FunctionContext", node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    key = ctx.graph.resolve_callable(node.func, ctx.info.module, ctx.info.class_name)
    if key is None:
        return None
    callee = ctx.graph.functions[key]
    if _returns_list(callee):
        return callee.qualname
    return None


def _check_materialized_helpers(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    func = ctx.func
    parents = ctx.parents
    stores: Dict[str, int] = {}
    for node in _body_walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            stores[node.id] = stores.get(node.id, 0) + 1
    for node in _body_walk(func):
        # Direct: len(self.helper(...)) / self.helper(...)[0].
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and node.args
        ):
            callee = _list_returning_call(ctx, node.args[0])
            if callee is not None:
                findings.append(
                    ctx.finding(
                        HOT_LINEAR_SCAN,
                        node,
                        f"{callee}() materializes a full list only to take len(); "
                        "count without building the list",
                    )
                )
        if isinstance(node, ast.Subscript) and isinstance(node.slice, (ast.Constant, ast.UnaryOp)):
            callee = _list_returning_call(ctx, node.value)
            if callee is not None:
                findings.append(
                    ctx.finding(
                        HOT_LINEAR_SCAN,
                        node,
                        f"{callee}() materializes a full list only to index one "
                        "element; short-circuit instead",
                    )
                )
        # Assigned once, then only peeked at (head/tail/len/truth).
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and stores.get(node.targets[0].id, 0) == 1
        ):
            callee = _list_returning_call(ctx, node.value)
            if callee is None:
                continue
            name = node.targets[0].id
            loads = [
                n
                for n in _body_walk(func)
                if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            ]
            if loads and all(_peek_only_use(load, parents) for load in loads):
                findings.append(
                    ctx.finding(
                        HOT_LINEAR_SCAN,
                        node,
                        f"{name!r} materializes the full {callee}() list but is only "
                        "peeked at; short-circuit on the first match",
                    )
                )


def _memo_guarded(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """A None-check / not-check ancestor counts as a memoization guard."""
    for parent in _ancestors(node, parents):
        if isinstance(parent, (ast.If, ast.IfExp)):
            for sub in ast.walk(parent.test):
                if isinstance(sub, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
                ):
                    return True
                if isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.Not):
                    return True
    return False


def _check_heavy_calls(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    for node in _body_walk(ctx.func):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolved_dotted(node.func)
        if resolved is None or not _is_heavy(resolved):
            continue
        if _under_raise(node, ctx.parents) or _memo_guarded(node, ctx.parents):
            continue
        findings.append(
            ctx.finding(
                HOT_UNMEMOIZED_HEAVY,
                node,
                f"{resolved}() runs per event with no memo guard; cache the result "
                "on an immutable carrier",
            )
        )


def _is_heavy(resolved: str) -> bool:
    return resolved in _HEAVY_CALLS or resolved.startswith(_HEAVY_PREFIXES)


def _has_slots(class_node: ast.ClassDef) -> bool:
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                return True
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    for decorator in class_node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = decorator.func
            dec = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
            if dec == "dataclass":
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def _slots_exempt(class_node: ast.ClassDef) -> bool:
    for base in class_node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if isinstance(name, str) and name.endswith(_SLOTLESS_BASES):
            return True
    return False


def _check_no_slots(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    for node in _body_walk(ctx.func):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_class(node.func)
        if resolved is None:
            continue
        class_node, class_name = resolved
        if _has_slots(class_node) or _slots_exempt(class_node):
            continue
        if _under_raise(node, ctx.parents):
            continue
        findings.append(
            ctx.finding(
                HOT_NO_SLOTS,
                node,
                f"{class_name} is instantiated per event but has no __slots__; "
                "each instance carries a dict (dataclasses: slots=True)",
            )
        )


def _check_ambient_relookups(ctx: "_FunctionContext", findings: List[Finding]) -> None:
    parents = ctx.parents
    # (a) module-attribute loads anywhere in a hot function: `heapq.heappop`
    # resolves the module global and its attribute on every call.
    seen_modules: Set[str] = set()
    for node in _body_walk(ctx.func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ctx.plain_modules
        ):
            parent = parents.get(id(node))
            if isinstance(parent, ast.Attribute):
                continue  # only report the full dotted chain once
            if isinstance(parent, ast.AnnAssign) and parent.annotation is node:
                continue
            resolved = f"{ctx.aliases.get(node.value.id, node.value.id)}.{node.attr}"
            if _is_heavy(resolved):
                continue  # HOT004's territory; one diagnosis per site
            if resolved in seen_modules:
                continue
            seen_modules.add(resolved)
            findings.append(
                ctx.finding(
                    HOT_AMBIENT_RELOOKUP,
                    node,
                    f"{resolved} is re-resolved on every call; bind it to a "
                    "module-level name at import",
                )
            )
    # (b) invariant self-attributes read repeatedly inside one loop.
    seen_attrs: Set[str] = set()
    for loop in _body_walk(ctx.func):
        if isinstance(loop, ast.For):
            region: List[ast.stmt] = list(loop.body) + list(loop.orelse)
        elif isinstance(loop, ast.While):
            region = list(loop.body) + list(loop.orelse)
        else:
            continue
        counts: Dict[str, List[ast.Attribute]] = {}
        nodes: List[ast.AST] = []
        for stmt in region:
            nodes.extend(ast.walk(stmt))
        if isinstance(loop, ast.While):
            nodes.extend(ast.walk(loop.test))
        for node in nodes:
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            attr = self_attr(node)
            if attr is None or attr in ctx.mutated_attrs or attr in ctx.method_names:
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # bound-method lookup; different optimization
            counts.setdefault(attr, []).append(node)
        for attr in sorted(counts):
            if len(counts[attr]) < 2 or attr in seen_attrs:
                continue
            seen_attrs.add(attr)
            first = min(counts[attr], key=lambda n: (n.lineno, n.col_offset))
            findings.append(
                ctx.finding(
                    HOT_AMBIENT_RELOOKUP,
                    first,
                    f"self.{attr} is invariant here but re-read {len(counts[attr])}x "
                    "per loop iteration scope; bind it to a local before the loop",
                )
            )


# -- orchestration ---------------------------------------------------------


class _FunctionContext:
    """Everything the per-rule checks need about one hot function."""

    def __init__(
        self,
        info: FunctionInfo,
        route: Route,
        graph: CallGraph,
        class_table: Dict[Tuple[str, str], ast.ClassDef],
        plain_modules: Set[str],
    ) -> None:
        self.info = info
        self.func = info.node
        self.route = route
        self.graph = graph
        self.class_table = class_table
        self.plain_modules = plain_modules
        self.aliases = graph.aliases.get(info.module, {})
        self.parents = parent_map(info.node)
        self.route_suffix = _route_str(route, graph)
        self.growing_attrs = self._class_growing_attrs()
        self.mutated_attrs = self._class_mutated_attrs()
        self.method_names = self._class_method_names()

    def finding(self, which, node: ast.AST, message: str) -> Finding:
        return Finding(
            which,
            self.info.path,
            getattr(node, "lineno", self.func.lineno),
            getattr(node, "col_offset", 0),
            f"{message} ({self.route_suffix})",
        )

    def _class_node(self) -> Optional[ast.ClassDef]:
        if self.info.class_name is None:
            return None
        return self.class_table.get((self.info.module, self.info.class_name))

    def _class_growing_attrs(self) -> Set[str]:
        class_node = self._class_node()
        if class_node is None:
            return set()
        grown: Set[str] = set()
        for node in ast.walk(class_node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GROWTH_CALLS
            ):
                attr = self_attr(node.func.value)
                if attr is not None:
                    grown.add(attr)
        return grown

    def _class_mutated_attrs(self) -> Set[str]:
        """self attributes stored outside __init__ (not loop-invariant)."""
        class_node = self._class_node()
        mutated: Set[str] = set()
        if class_node is None:
            scopes: List[ast.AST] = [self.func]
        else:
            scopes = [
                stmt
                for stmt in class_node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name != "__init__"
            ]
        for scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    attr = self_attr(node)
                    if attr is not None:
                        mutated.add(attr)
        return mutated

    def _class_method_names(self) -> Set[str]:
        class_node = self._class_node()
        if class_node is None:
            return set()
        return {
            stmt.name
            for stmt in class_node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def resolved_dotted(self, func_expr: ast.AST) -> Optional[str]:
        """``mod.attr`` with the head resolved through import aliases."""
        if isinstance(func_expr, ast.Attribute) and isinstance(func_expr.value, ast.Name):
            head = func_expr.value.id
            return f"{self.aliases.get(head, head)}.{func_expr.attr}"
        if isinstance(func_expr, ast.Name):
            return self.aliases.get(func_expr.id)
        return None

    def resolve_class(self, expr: ast.AST) -> Optional[Tuple[ast.ClassDef, str]]:
        if isinstance(expr, ast.Name):
            name = expr.id
            node = self.class_table.get((self.info.module, name))
            if node is not None:
                return node, name
            imported = self.aliases.get(name)
            if imported and "." in imported:
                src_module, _, src_name = imported.rpartition(".")
                node = self.class_table.get((src_module, src_name))
                if node is not None:
                    return node, src_name
        elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            imported = self.aliases.get(expr.value.id)
            if imported:
                node = self.class_table.get((imported, expr.attr))
                if node is not None:
                    return node, expr.attr
        return None


_CHECKS = (
    _check_fresh_containers,
    _check_eager_format,
    _check_linear_scans,
    _check_heavy_calls,
    _check_no_slots,
    _check_ambient_relookups,
)


def _plain_module_names(tree: ast.Module) -> Set[str]:
    """Names bound by plain ``import X [as Y]`` (module objects, not members)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def run(program: Program) -> List[Finding]:
    """Pass entry point: HOT001-006 under the shipped manifest."""
    return run_with_roots(program, load_manifest(DEFAULT_MANIFEST))


def run_with_roots(program: Program, specs: Sequence[RootSpec]) -> List[Finding]:
    """Manifest-free entry point (tests pass RootSpecs directly)."""
    graph = program.graph
    roots = resolve_roots(graph, specs)
    if not roots:
        return []
    hot = graph.reach(roots)
    trees = {source_file.path: source_file.tree for source_file in program.files}
    plain_by_path: Dict[str, Set[str]] = {}  # only the files hot functions live in
    findings: List[Finding] = []
    for key in sorted(hot):
        info = graph.functions[key]
        if info.path not in plain_by_path:
            plain_by_path[info.path] = _plain_module_names(trees[info.path])
        ctx = _FunctionContext(info, hot[key], graph, program.classes, plain_by_path[info.path])
        for check in _CHECKS:
            check(ctx, findings)
    return findings
