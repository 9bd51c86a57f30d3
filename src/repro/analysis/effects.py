"""Pass 4 — interprocedural effect analysis (RACE1xx / PURE rules).

Two rule families ride on the same machinery — a module-level call graph
(:mod:`repro.analysis.callgraph`) and per-function effect summaries
propagated bottom-up with k-bounded inlining
(:mod:`repro.analysis.summaries`):

* **RACE101–103** extend the intraprocedural race pass across call
  boundaries.  RACE001–003 stop at the handler body, so a
  conflict routed through a private helper (``OpcGroup._dispatch``,
  ``self._collect()``) is invisible to them.  Here each same-tick
  handler's read/write/mutate/iterate sets include everything reachable
  through up to ``DEFAULT_MAX_K`` ``self.method()`` hops, and findings carry the
  full call chain (``_on_ping_result -> _collect -> clear_callback``).
  Conflicts whose sides are all direct (chain ``()``) are *not*
  re-reported: those entries are the same direct summaries RACE001–003
  read (:meth:`Program.direct <repro.analysis.program.Program.direct>`),
  so such a conflict is theirs, with their existing suppressions.

* **PURE001–004** check the contract ``parallel_map`` states but nothing
  enforced: tasks fanned out to spawn workers must be pure picklable
  functions of their arguments, or the byte-identical merge guarantee
  (PERF.md) silently breaks.

  - PURE001 ``impure-task`` — the task transitively writes module state
    (``global`` stores, mutation of module-level containers).  Each
    worker mutates its own copy; the merged result no longer equals the
    serial run.
  - PURE002 ``unpicklable-task`` — the task is a lambda, a nested
    function, or a bound method: it cannot be pickled by reference as a
    module-level function (bound methods also drag the whole instance
    into every worker).
  - PURE003 ``entropy-task`` — the task transitively reads ambient
    entropy (wall clock, global RNG, environment) and takes no seed-like
    parameter, so two workers — or two runs — disagree.
  - PURE004 ``task-mutates-argument`` — the task mutates its argument in
    place.  Serial runs see the mutation accumulate across items;
    spawned workers mutate pickled copies, so results diverge with the
    worker count.

RACE101–103 are warnings like their intraprocedural siblings (the
tiebreak order is occasionally the designed behaviour; annotate reviewed
pairs in place).  PURE rules are errors: each one breaks the hard
byte-identity contract the ``tests/perf`` parallel-equivalence tests
enforce.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import races
from repro.analysis.callgraph import CallGraph, positional_params
from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.program import Program
from repro.analysis.summaries import Chain, EffectSummary
from repro.analysis.walker import SourceFile, resolve_call_name

IP_WRITE_WRITE = rule(
    "RACE101", "ip-race-write-write", Severity.WARNING, "effects",
    "Same-tick handlers write one attribute through helper calls; order is the seq tiebreak.",
)
IP_WRITE_READ = rule(
    "RACE102", "ip-race-write-read", Severity.WARNING, "effects",
    "A same-tick handler reads what another writes through a helper call chain.",
)
IP_CONTAINER = rule(
    "RACE103", "ip-race-container", Severity.WARNING, "effects",
    "A same-tick handler mutates, through helpers, a container another iterates.",
)
IMPURE_TASK = rule(
    "PURE001", "impure-task", Severity.ERROR, "effects",
    "parallel_map task transitively writes module state; workers diverge from the serial run.",
)
UNPICKLABLE_TASK = rule(
    "PURE002", "unpicklable-task", Severity.ERROR, "effects",
    "parallel_map task is a lambda/nested function/bound method; not picklable by reference.",
)
ENTROPY_TASK = rule(
    "PURE003", "entropy-task", Severity.ERROR, "effects",
    "parallel_map task reads ambient entropy without a seed parameter.",
)
MUTATING_TASK = rule(
    "PURE004", "task-mutates-argument", Severity.ERROR, "effects",
    "parallel_map task mutates its argument in place; workers mutate pickled copies.",
)


def _chain_str(handler: str, chain: Chain, graph: CallGraph) -> str:
    """``handler -> helper -> deeper`` using short method names."""
    names = [handler]
    for key in chain:
        info = graph.functions.get(key)
        names.append(info.short_name if info is not None else key.rsplit(":", 1)[-1])
    return " -> ".join(names)


# -- RACE101–103: interprocedural same-tick handler conflicts --------------


def _handler_summaries(
    model: races.ClassModel,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> Dict[str, EffectSummary]:
    """Transitive summaries for the model's call-graph handlers, by method name
    (a class nested in a function has none: it is RACE001–003's alone)."""
    out: Dict[str, EffectSummary] = {}
    for handler in sorted(model.handlers):
        key = graph.methods.get((model.module, model.name, handler))
        if key is not None and graph.functions[key].node is model.methods[handler]:
            out[handler] = summaries[key]
    return out


def _sides(
    handlers: Dict[str, EffectSummary], select
) -> List[Tuple[str, Chain]]:
    """(handler, chain) pairs where *select* yields the attr's chain."""
    out: List[Tuple[str, Chain]] = []
    for handler in sorted(handlers):
        chain = select(handlers[handler])
        if chain is not None:
            out.append((handler, chain))
    return out


def _first_pair(
    lefts: List[Tuple[str, Chain]], rights: List[Tuple[str, Chain]]
) -> Tuple[Optional[Tuple[Tuple[str, Chain], Tuple[str, Chain]]], bool]:
    """(first pair of distinct handlers with a chained side, whether some
    pair is direct on both sides — a conflict RACE001–003 own)."""
    pair = None
    direct = False
    for left, left_chain in lefts:
        for right, right_chain in rights:
            if right == left:
                continue
            if left_chain == () and right_chain == ():
                direct = True
            elif pair is None:
                pair = ((left, left_chain), (right, right_chain))
    return pair, direct


def _check_handler_conflicts(
    model: races.ClassModel,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    findings: List[Finding] = []
    handlers = _handler_summaries(model, graph, summaries)
    if len(handlers) < 2:
        return findings
    def_line = {name: model.methods[name].lineno for name in handlers}

    attrs: Set[str] = set()
    for summary in handlers.values():
        attrs.update(summary.self_writes)
        attrs.update(summary.self_reads)

    for attr in sorted(attrs):
        if attr.startswith("__"):
            continue
        writers = _sides(handlers, lambda s: s.self_writes.get(attr))
        readers = _sides(handlers, lambda s: s.self_reads.get(attr))
        mutators = _sides(handlers, lambda s: s.self_mutates.get(attr))
        iterators = _sides(handlers, lambda s: s.self_iterates.get(attr))

        # -- write-write (two direct writers are RACE001's) -------------
        claimed = len(writers) >= 2
        if claimed and sum(1 for _, chain in writers if chain == ()) < 2:
            routes = "; ".join(_chain_str(w, c, graph) for w, c in writers)
            findings.append(Finding(
                IP_WRITE_WRITE, model.path, def_line[writers[0][0]], 0,
                f"{model.name}.{attr} written by same-tick handlers via {routes}; "
                f"order is only the seq tiebreak",
            ))
            continue
        # -- container mutate vs iterate (classified before write-read:
        # mutates are writes and iterations are reads, and the container
        # rule is the more precise diagnosis) ---------------------------
        pair, direct = _first_pair(mutators, iterators)
        if pair is not None and not direct:
            (mutator, mut_chain), (iterator, it_chain) = pair
            findings.append(Finding(
                IP_CONTAINER, model.path, def_line[mutator], 0,
                f"{model.name}.{attr} mutated via {_chain_str(mutator, mut_chain, graph)} "
                f"while {_chain_str(iterator, it_chain, graph)} iterates it in a same-tick handler",
            ))
        # -- write-read, unless a rule above already owns the attribute -
        if claimed or pair is not None or direct:
            continue
        pair, direct = _first_pair(writers, readers)
        if pair is not None and not direct:
            (writer, write_chain), (reader, read_chain) = pair
            findings.append(Finding(
                IP_WRITE_READ, model.path, def_line[writer], 0,
                f"{model.name}.{attr} written via {_chain_str(writer, write_chain, graph)} "
                f"and read via {_chain_str(reader, read_chain, graph)} in same-tick handlers; "
                f"order is only the seq tiebreak",
            ))
    return findings


# -- PURE001–004: parallel_map task purity ---------------------------------


def _task_expr(call: ast.Call) -> Optional[ast.AST]:
    """The task-function argument of a ``parallel_map`` call."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def _enclosing_nested_def(scopes: Sequence[ast.AST], name: str) -> bool:
    """Whether *name* is a function defined inside an enclosing function."""
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name and node is not scope:
                return True
    return False


def _seedlike_params(node: ast.FunctionDef) -> bool:
    names = positional_params(node, drop_self=False)
    names += [arg.arg for arg in node.args.kwonlyargs]
    return any("seed" in name for name in names)


def _check_task(
    source_file: SourceFile,
    call: ast.Call,
    task: ast.AST,
    module: str,
    class_name: Optional[str],
    scopes: Sequence[ast.AST],
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    path, line, col = source_file.path, call.lineno, call.col_offset
    findings: List[Finding] = []

    if isinstance(task, ast.Lambda):
        return [Finding(
            UNPICKLABLE_TASK, path, line, col,
            "task is a lambda; spawn workers pickle tasks by reference, so it must "
            "be a module-level function",
        )]
    if isinstance(task, ast.Attribute):
        if isinstance(task.value, ast.Name) and task.value.id in ("self", "cls"):
            return [Finding(
                UNPICKLABLE_TASK, path, line, col,
                f"task self.{task.attr} is a bound method; it drags the whole instance "
                f"into every worker — use a module-level function",
            )]
    if isinstance(task, ast.Name) and _enclosing_nested_def(scopes, task.id):
        return [Finding(
            UNPICKLABLE_TASK, path, line, col,
            f"task {task.id} is a nested function; spawn workers cannot pickle it "
            f"by reference — move it to module level",
        )]

    key = graph.resolve_callable(task, module, class_name)
    if key is None or key not in summaries:
        return findings  # outside the analysed set; nothing to vouch for
    info = graph.functions[key]
    summary = summaries[key]
    task_name = info.short_name

    for name in sorted(summary.global_writes):
        chain = summary.global_writes[name]
        findings.append(Finding(
            IMPURE_TASK, path, line, col,
            f"task {task_name} transitively writes module state {name!r} "
            f"(via {_chain_str(task_name, chain, graph)}); the merged result is no "
            f"longer a pure function of the task arguments",
        ))
        break  # one impurity per call site is enough to gate
    if summary.ambient and not _seedlike_params(info.node):
        source = sorted(summary.ambient)[0]
        chain = summary.ambient[source]
        findings.append(Finding(
            ENTROPY_TASK, path, line, col,
            f"task {task_name} reads ambient entropy {source} "
            f"(via {_chain_str(task_name, chain, graph)}) and takes no seed parameter; "
            f"workers and reruns diverge",
        ))
    for param in sorted(summary.param_mutations):
        chain = summary.param_mutations[param]
        findings.append(Finding(
            MUTATING_TASK, path, line, col,
            f"task {task_name} mutates its argument {param!r} in place "
            f"(via {_chain_str(task_name, chain, graph)}); workers mutate pickled "
            f"copies, so results depend on the worker count",
        ))
        break
    return findings


def _check_parallel_map_sites(
    source_file: SourceFile,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    findings: List[Finding] = []
    tree = source_file.tree
    if tree is None:
        return findings
    aliases = source_file.aliases
    module = source_file.module_name

    def visit(node: ast.AST, class_name: Optional[str], scopes: Tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, scopes)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, class_name, scopes + (child,))
                continue
            if isinstance(child, ast.Call):
                callee = resolve_call_name(child, aliases)
                if callee is not None and callee.split(".")[-1] == "parallel_map":
                    task = _task_expr(child)
                    if task is not None:
                        findings.extend(_check_task(
                            source_file, child, task, module, class_name,
                            scopes, graph, summaries,
                        ))
            visit(child, class_name, scopes)

    visit(tree, None, ())
    return findings


# -- pass entry points -----------------------------------------------------


def run(program: Program) -> List[Finding]:
    """Pass entry point: RACE101-103 and PURE001-004 with inlining depth ``DEFAULT_MAX_K``."""
    graph = program.graph
    summaries = program.summaries
    findings: List[Finding] = []
    for model in program.models:
        if len(model.handlers) < 2:
            continue
        findings.extend(_check_handler_conflicts(model, graph, summaries))
    for source_file in program.files:
        findings.extend(_check_parallel_map_sites(source_file, graph, summaries))
    return findings
