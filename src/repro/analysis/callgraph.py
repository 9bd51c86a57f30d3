"""Module-level call graph over the analysed file set.

The intraprocedural passes stop at a function body; the effects pass
(:mod:`repro.analysis.effects`) needs to know *who calls whom* so effect
summaries can flow bottom-up.  This module builds that graph with the
resolution rules the toolkit's own code actually exercises:

* ``self.helper()`` / ``cls.helper()`` — a method of the same class, or
  of a base class whose definition is in the analysed set (single level
  of bases, resolved by name).
* ``helper()`` — a module-level function of the same module, or one
  imported by name (``from repro.x import helper``) from an analysed
  module.
* ``mod.helper()`` — a function of module ``mod`` when the import alias
  resolves to an analysed module.
* ``ClassName(...)`` — the class's ``__init__`` when the class is in the
  analysed set (locally defined or imported by name).
* ``ClassName.method(...)`` — the unbound method.

Anything else (computed callees, methods on locals, duck-typed
attributes) produces no edge — the analysis is deliberately
under-approximate and ANALYSIS.md documents the blind spots.  Every edge
records whether the call went through the instance receiver
(``self.``/``cls.``) and how bare-name/``self.attr`` arguments map onto
the callee's positional parameters; the summary propagation needs both.

:meth:`CallGraph.reach` is the one k-bounded propagation every
whole-program pass shares: effect summaries, hotness and the lifecycle
release searches all see exactly :data:`DEFAULT_MAX_K` call hops, no
further.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.walker import SourceFile, dotted_name

#: An argument "slot" in the caller's frame: ("param", name) when the
#: argument is a bare parameter name, ("self", attr) when it is exactly
#: ``self.attr``.  Anything else is not tracked.
Slot = Tuple[str, str]

#: A propagation route: function keys from a root to the reached key.
Route = Tuple[str, ...]

#: Propagation depth: effects, hotness and release searches travel at
#: most this many call hops.
DEFAULT_MAX_K = 2


@dataclass(frozen=True)
class Edge:
    """One call edge, annotated for summary propagation."""

    callee: str  # FunctionInfo key of the target
    line: int  # first call-site line
    via_self: bool  # receiver is self/cls (same-instance dispatch)
    #: callee positional-parameter name -> caller slot, for the bare-name
    #: and ``self.attr`` arguments of the first call site.
    arg_slots: Tuple[Tuple[str, Slot], ...] = ()


@dataclass
class FunctionInfo:
    """One function or method in the graph."""

    key: str  # "module:qualname", e.g. "repro.opc.group:OpcGroup._flush"
    module: str
    qualname: str  # "Class.method" or "func"
    class_name: Optional[str]
    path: str
    node: ast.FunctionDef

    @property
    def short_name(self) -> str:
        """The trailing name, for call-chain messages."""
        return self.qualname.split(".")[-1]


@dataclass
class CallGraph:
    """Functions, resolved call edges, and the lookup tables behind them.

    All iteration orders are deterministic (sorted keys, file order) so
    downstream findings are byte-stable across runs.
    """

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    edges: Dict[str, List[Edge]] = field(default_factory=dict)
    #: (module, function-name) -> key, for module-level functions.
    module_functions: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (module, class-name, method-name) -> key.
    methods: Dict[Tuple[str, str, str], str] = field(default_factory=dict)
    #: class name -> [(defining module, {method: key})] in file order.
    classes: Dict[str, List[Tuple[str, Dict[str, str]]]] = field(default_factory=dict)
    #: (module, class-name) -> base-class trailing names, as written.
    bases: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    #: module -> import aliases (local name -> dotted path).
    aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def callees(self, key: str) -> List[Edge]:
        return self.edges.get(key, [])

    # -- resolution --------------------------------------------------------

    def reach(self, roots: Sequence[str]) -> Dict[str, Route]:
        """Breadth-first reach: key -> route of keys from a root.

        Edges are followed in their deterministic order for at most
        :data:`DEFAULT_MAX_K` hops, so a function buried deeper is — by
        design — not reached.  Cycles are handled by the visited set: a
        function keeps the first shortest route that reached it.
        """
        reached: Dict[str, Route] = {key: (key,) for key in roots}
        frontier = list(roots)
        for _ in range(DEFAULT_MAX_K):
            if not frontier:
                break
            next_frontier: List[str] = []
            for key in frontier:
                route = reached[key]
                for edge in self.callees(key):
                    if edge.callee not in reached:
                        reached[edge.callee] = route + (edge.callee,)
                        next_frontier.append(edge.callee)
            frontier = next_frontier
        return reached

    def resolve_method(self, module: str, class_name: str, method: str) -> Optional[str]:
        """``class_name.method`` in *module*, walking one level of bases."""
        key = self.methods.get((module, class_name, method))
        if key is not None:
            return key
        return self.resolve_in_bases(module, class_name, method)

    def resolve_in_bases(self, module: str, class_name: str, method: str) -> Optional[str]:
        """*method* in one level of *class_name*'s bases, skipping an own override."""
        for base in self.bases.get((module, class_name), []):
            scopes = self.classes.get(base, [])
            # Prefer a base defined in the same module, else first match
            # by module name — deterministic either way.
            for scope_module, scope_methods in sorted(scopes, key=lambda s: (s[0] != module, s[0])):
                if method in scope_methods:
                    return scope_methods[method]
        return None

    def resolve_callable(
        self, expr: ast.AST, module: str, class_name: Optional[str]
    ) -> Optional[str]:
        """Resolve a callable *reference* (not a call) to a function key.

        Handles ``name``, ``self.name``, ``mod.name``, ``Class.name``.
        Returns None for anything it cannot attribute.
        """
        if isinstance(expr, ast.Name):
            name = expr.id
            key = self.module_functions.get((module, name))
            if key is not None:
                return key
            imported = self.aliases.get(module, {}).get(name)
            if imported and "." in imported:
                src_module, _, src_name = imported.rpartition(".")
                key = self.module_functions.get((src_module, src_name))
                if key is not None:
                    return key
                # `from x import ClassName` used as a constructor.
                key = self.methods.get((src_module, src_name, "__init__"))
                if key is not None:
                    return key
            # Locally-defined class used as a constructor.
            return self.methods.get((module, name, "__init__"))
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner in ("self", "cls") and class_name:
                return self.resolve_method(module, class_name, expr.attr)
            # ClassName.method in this module.
            key = self.methods.get((module, owner, expr.attr))
            if key is not None:
                return key
            imported = self.aliases.get(module, {}).get(owner)
            if imported:
                src_module, _, src_name = imported.rpartition(".")
                if src_name:  # from pkg import ClassName
                    key = self.methods.get((src_module, src_name, expr.attr))
                    if key is not None:
                        return key
                # import pkg.mod as alias — function or constructor.
                key = self.module_functions.get((imported, expr.attr))
                if key is not None:
                    return key
                key = self.methods.get((imported, expr.attr, "__init__"))
                if key is not None:
                    return key
        return None


def _function_defs(tree: ast.Module) -> List[Tuple[Optional[ast.ClassDef], ast.FunctionDef]]:
    """Top-level functions and first-level methods (nested defs excluded)."""
    out: List[Tuple[Optional[ast.ClassDef], ast.FunctionDef]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((None, node))  # type: ignore[arg-type]
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((node, stmt))  # type: ignore[arg-type]
    return out


def positional_params(node: ast.FunctionDef, *, drop_self: bool) -> List[str]:
    """Positional parameter names, minus the receiver for methods."""
    params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    if drop_self and params and params[0] in ("self", "cls"):
        params = params[1:]
    return params


def _arg_slot(node: ast.AST) -> Optional[Slot]:
    if isinstance(node, ast.Name):
        return ("param", node.id)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return ("self", node.attr)
    return None


def _collect(files: Sequence[SourceFile], graph: CallGraph) -> None:
    for source_file in files:
        if source_file.tree is None:
            continue
        module = source_file.module_name
        graph.aliases[module] = source_file.aliases
        for class_node, func in _function_defs(source_file.tree):
            class_name = class_node.name if class_node is not None else None
            qualname = f"{class_name}.{func.name}" if class_name else func.name
            key = f"{module}:{qualname}"
            graph.functions[key] = FunctionInfo(key, module, qualname, class_name, source_file.path, func)
            if class_name is None:
                graph.module_functions[(module, func.name)] = key
            else:
                graph.methods[(module, class_name, func.name)] = key
        for node in source_file.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: f"{module}:{node.name}.{stmt.name}"
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            graph.classes.setdefault(node.name, []).append((module, methods))
            base_names = [dotted_name(base) or "" for base in node.bases]
            graph.bases[(module, node.name)] = [b.split(".")[-1] for b in base_names if b]


def _build_edges(graph: CallGraph) -> None:
    for key in sorted(graph.functions):
        info = graph.functions[key]
        by_callee: Dict[str, Edge] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = graph.resolve_callable(node.func, info.module, info.class_name)
            if target is None or target == key or target in by_callee:
                continue
            via_self = (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("self", "cls")
            )
            callee_info = graph.functions[target]
            params = positional_params(callee_info.node, drop_self=callee_info.class_name is not None)
            slots: List[Tuple[str, Slot]] = []
            for position, arg in enumerate(node.args):
                if position >= len(params) or isinstance(arg, ast.Starred):
                    break
                slot = _arg_slot(arg)
                if slot is not None:
                    slots.append((params[position], slot))
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg in params:
                    slot = _arg_slot(keyword.value)
                    if slot is not None:
                        slots.append((keyword.arg, slot))
            by_callee[target] = Edge(target, node.lineno, via_self, tuple(slots))
        graph.edges[key] = [by_callee[t] for t in sorted(by_callee)]


def build_call_graph(files: Sequence[SourceFile]) -> CallGraph:
    """Construct the call graph for *files*."""
    graph = CallGraph()
    _collect(files, graph)
    _build_edges(graph)
    return graph
