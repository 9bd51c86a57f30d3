"""Per-function effect summaries and their bottom-up propagation.

A summary is the whole-program currency of the effects pass: for one
function it records, as dictionaries keyed by name,

* ``self_reads`` / ``self_writes`` / ``self_mutates`` / ``self_iterates``
  — accesses to ``self.*`` attributes (methods only),
* ``global_writes`` — stores to ``global``-declared names and mutator
  calls on module-level bindings,
* ``ambient`` — reads of host state the determinism contract forbids
  (wall clock, global RNG, OS entropy, environment),
* ``param_mutations`` — in-place mutation of the function's own
  parameters.

Each value is the *call chain* through which the effect was reached: the
empty tuple for a direct effect, otherwise the function keys traversed,
outermost first.  :func:`direct_effects` is the k = 0 summary: the one
effect model under both race families (RACE001–003 read it per handler;
:class:`~repro.analysis.program.Program` memoizes it per function).
:func:`propagate` folds callee summaries into callers
over the call graph with k-bounded inlining (an effect travels at most
``DEFAULT_MAX_K`` call hops) and cycle-safe fixpoint iteration — the
chain-length bound makes the lattice finite, so iteration terminates on
recursive cycles without special casing.

Propagation is receiver-aware: ``self.*`` effects only flow through
``self.method()`` edges (a method mutating a *locally constructed*
object is private to the caller), while global writes and ambient reads
flow through every edge.  A callee that mutates its parameter projects
that mutation back onto whatever the caller passed — another parameter
(keeping :data:`EffectSummary.param_mutations` transitive) or a
``self.attr`` (surfacing as a container mutation on the caller).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import DEFAULT_MAX_K, CallGraph, Edge, FunctionInfo, positional_params
from repro.analysis.determinism import (
    _ENTROPY_CALLS,
    _RANDOM_DRAWS,
    _WALL_CLOCK_CALLS,
)
from repro.analysis.walker import dotted_name, resolve_call_name, self_attr

#: A propagation path: keys of the callees traversed, outermost first.
#: Empty for effects the function performs in its own body.
Chain = Tuple[str, ...]

#: Container methods treated as in-place mutation of the receiver.
MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add", "discard",
    "update", "setdefault", "popitem", "appendleft", "popleft", "sort", "reverse",
}

#: Ambient host reads (resolved dotted callee names) beyond the global
#: RNG, which is matched structurally below.
AMBIENT_CALLS = (
    set(_WALL_CLOCK_CALLS)
    | set(_ENTROPY_CALLS)
    | {"os.getenv", "os.environ.get", "os.urandom", "os.cpu_count", "secrets.token_bytes",
       "secrets.token_hex", "secrets.randbelow", "uuid.uuid1", "uuid.uuid4"}
)

#: Ambient attribute reads (no call involved).
AMBIENT_ATTRS = {"os.environ", "sys.argv"}


@dataclass
class EffectSummary:
    """Effect sets of one function; values are representative chains."""

    self_reads: Dict[str, Chain] = field(default_factory=dict)
    self_writes: Dict[str, Chain] = field(default_factory=dict)
    self_mutates: Dict[str, Chain] = field(default_factory=dict)
    self_iterates: Dict[str, Chain] = field(default_factory=dict)
    global_writes: Dict[str, Chain] = field(default_factory=dict)
    ambient: Dict[str, Chain] = field(default_factory=dict)
    param_mutations: Dict[str, Chain] = field(default_factory=dict)

    def copy(self) -> "EffectSummary":
        return EffectSummary(
            dict(self.self_reads), dict(self.self_writes), dict(self.self_mutates),
            dict(self.self_iterates), dict(self.global_writes), dict(self.ambient),
            dict(self.param_mutations),
        )


def module_global_names(tree: ast.Module) -> Set[str]:
    """Names bound by top-level assignments (the mutable module state)."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(n.id for n in target.elts if isinstance(n, ast.Name))
    return names


def _scope_names(func: ast.FunctionDef) -> Tuple[Set[str], Set[str]]:
    """(names the function binds locally — params plus any Store target —,
    names it declares ``global``), in one walk."""
    bound: Set[str] = set()
    declared_global: Set[str] = set()
    args = func.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not func:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return bound, declared_global


def _param_names(func: ast.FunctionDef, *, is_method: bool) -> Set[str]:
    params = set(positional_params(func, drop_self=is_method))
    params.update(arg.arg for arg in func.args.kwonlyargs)
    return params


def _ambient_source(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical ambient-source name for *node*, if it reads one."""
    callee = resolve_call_name(node, aliases)
    if callee is None:
        return None
    if callee in AMBIENT_CALLS:
        return callee
    if callee.startswith("secrets.") or callee.startswith("numpy.random.") or callee.startswith("np.random."):
        return callee
    head, _, tail = callee.partition(".")
    if aliases.get(head, head) == "random" and tail in _RANDOM_DRAWS:
        return f"random.{tail}"
    if "." not in callee and aliases.get(callee, "") == f"random.{callee}":
        return f"random.{callee}"
    return None


def direct_effects(
    info: FunctionInfo,
    module_globals: Set[str],
    aliases: Dict[str, str],
) -> EffectSummary:
    """The effects *info*'s own body performs (no propagation)."""
    func = info.node
    summary = EffectSummary()
    is_method = info.class_name is not None
    params = _param_names(func, is_method=is_method)
    bound, declared_global = _scope_names(func)

    def is_module_global(name: str) -> bool:
        if name in declared_global:
            return True
        return name in module_globals and name not in bound

    for node in ast.walk(func):
        # -- self.* attribute accesses ----------------------------------
        attr = self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):  # type: ignore[attr-defined]
                summary.self_writes.setdefault(attr, ())
            else:
                summary.self_reads.setdefault(attr, ())
        if isinstance(node, ast.AugAssign):
            target = self_attr(node.target)
            if target is not None:
                summary.self_writes.setdefault(target, ())
                summary.self_reads.setdefault(target, ())
            if isinstance(node.target, ast.Name) and is_module_global(node.target.id):
                summary.global_writes.setdefault(node.target.id, ())
        # -- plain global stores ----------------------------------------
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id in declared_global:
                summary.global_writes.setdefault(node.id, ())
        # -- calls: mutators and ambient sources ------------------------
        if isinstance(node, ast.Call):
            source = _ambient_source(node, aliases)
            if source is not None:
                summary.ambient.setdefault(source, ())
            if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                _record_mutation(summary, node.func.value, params, is_module_global)
        # -- subscript / attribute stores on params and globals ---------
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            _record_mutation(summary, node.value, params, is_module_global)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            # `self.x = v` is a plain write (handled above); deeper
            # targets (`obj.field = v`, `self.a.b = v`) mutate the root.
            if self_attr(node) is None:
                _record_mutation(summary, node.value, params, is_module_global)
        # -- ambient attribute reads ------------------------------------
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            dotted = dotted_name(node)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                resolved = aliases.get(head, head) + (f".{rest}" if rest else "")
                if resolved in AMBIENT_ATTRS:
                    summary.ambient.setdefault(resolved, ())
        # -- iteration over self containers -----------------------------
        if isinstance(node, (ast.For, ast.AsyncFor)):
            owner_attr = _iterated_self_attr(node.iter)
            if owner_attr is not None:
                summary.self_iterates.setdefault(owner_attr, ())
                summary.self_reads.setdefault(owner_attr, ())
        if isinstance(node, ast.comprehension):
            owner_attr = _iterated_self_attr(node.iter)
            if owner_attr is not None:
                summary.self_iterates.setdefault(owner_attr, ())
                summary.self_reads.setdefault(owner_attr, ())
    return summary


def _root_name(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
    """(root variable, first attribute) of an attribute/name chain.

    ``self.a.b`` -> ("self", "a"); ``items`` -> ("items", None);
    anything not rooted at a plain name -> (None, None).
    """
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, (attrs[-1] if attrs else None)
    return None, None


def _record_mutation(summary: EffectSummary, owner: ast.AST, params: Set[str], is_module_global) -> None:
    """Attribute in-place mutation rooted at *owner*: classify the root."""
    root, first_attr = _root_name(owner)
    if root is None:
        return
    if root == "self":
        if first_attr is not None:
            summary.self_mutates.setdefault(first_attr, ())
            summary.self_writes.setdefault(first_attr, ())
    elif root in params:
        summary.param_mutations.setdefault(root, ())
    elif is_module_global(root):
        summary.global_writes.setdefault(root, ())


def _iterated_self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when iterating ``self.attr`` or ``self.attr.items()`` etc."""
    attr = self_attr(node)
    if attr is not None:
        return attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("items", "keys", "values"):
            return self_attr(node.func.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sorted":
        if node.args:
            return _iterated_self_attr(node.args[0])
    return None


# -- propagation -----------------------------------------------------------


def _merge_chained(dst: Dict[str, Chain], src: Dict[str, Chain], hop: str, caller_key: str) -> bool:
    """Fold *src* entries into *dst* through one call hop; True if grown."""
    changed = False
    for name in sorted(src):
        chain = (hop,) + src[name]
        if len(chain) > DEFAULT_MAX_K or caller_key in chain:
            continue
        if name not in dst:
            dst[name] = chain
            changed = True
    return changed


def _merge_edge(
    merged: EffectSummary,
    caller: FunctionInfo,
    caller_params: Set[str],
    edge: Edge,
    callee: EffectSummary,
) -> bool:
    changed = False
    key = caller.key
    if edge.via_self:
        changed |= _merge_chained(merged.self_reads, callee.self_reads, edge.callee, key)
        changed |= _merge_chained(merged.self_writes, callee.self_writes, edge.callee, key)
        changed |= _merge_chained(merged.self_mutates, callee.self_mutates, edge.callee, key)
        changed |= _merge_chained(merged.self_iterates, callee.self_iterates, edge.callee, key)
    changed |= _merge_chained(merged.global_writes, callee.global_writes, edge.callee, key)
    changed |= _merge_chained(merged.ambient, callee.ambient, edge.callee, key)
    # A callee that mutates its parameter mutates whatever we passed it.
    for callee_param, slot in edge.arg_slots:
        chain_tail = callee.param_mutations.get(callee_param)
        if chain_tail is None:
            continue
        chain = (edge.callee,) + chain_tail
        if len(chain) > DEFAULT_MAX_K or key in chain:
            continue
        kind, name = slot
        if kind == "param" and name in caller_params:
            if name not in merged.param_mutations:
                merged.param_mutations[name] = chain
                changed = True
        elif kind == "self":
            if name not in merged.self_mutates:
                merged.self_mutates[name] = chain
                changed = True
            if name not in merged.self_writes:
                merged.self_writes[name] = chain
                changed = True
    return changed


def propagate(graph: CallGraph, direct: Dict[str, EffectSummary]) -> Dict[str, EffectSummary]:
    """Fixpoint of callee-into-caller folding, chains bounded by ``DEFAULT_MAX_K``.

    Each round extends every caller with its callees' summaries from the
    previous round (Jacobi-style, so the result is independent of
    iteration order); entries whose chain would exceed the bound are
    dropped, which both implements the k-bound and guarantees
    termination on recursive call cycles.
    """
    params_of = {
        key: _param_names(info.node, is_method=info.class_name is not None)
        for key, info in graph.functions.items()
    }
    current = {key: summary.copy() for key, summary in direct.items()}
    for _ in range(DEFAULT_MAX_K):
        changed = False
        nxt: Dict[str, EffectSummary] = {}
        for key in sorted(graph.functions):
            merged = current[key].copy()
            info = graph.functions[key]
            for edge in graph.callees(key):
                callee_summary = current.get(edge.callee)
                if callee_summary is not None:
                    changed |= _merge_edge(merged, info, params_of[key], edge, callee_summary)
            nxt[key] = merged
        current = nxt
        if not changed:
            break
    return current
