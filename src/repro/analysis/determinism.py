"""Pass 1 — determinism lint (DET rules).

The seed-replay guarantee (same seed ⇒ identical trace, see
:mod:`repro.simnet.kernel`) only holds while every source of
nondeterminism is funnelled through :class:`repro.simnet.random.RngStreams`
and the simulated clock.  This pass flags the ambient alternatives:

* DET001 ``wall-clock``       — host time (``time.time``, ``datetime.now``, ...)
* DET002 ``unseeded-random``  — module-level ``random.*`` / ``numpy.random.*``
* DET003 ``entropy``          — ``os.urandom``, ``uuid.uuid1/4``, ``secrets.*``
* DET004 ``unordered-fanout`` — iterating a ``set`` (or ``.keys()`` of one)
  while scheduling events; set order varies with PYTHONHASHSEED
* DET005 ``id-ordering``      — ``id()`` used to order or key anything
* DET006 ``ambient-io``       — ``os.environ``/``open``/filesystem reads
  feeding sim behaviour

Suppress deliberate uses in place, e.g. the harness timing its own wall
run: ``# oftt-lint: ok[wall-clock]``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.walker import SourceFile, dotted_name, resolve_call_name

if TYPE_CHECKING:  # the program module imports this one (via summaries)
    from repro.analysis.program import Program

WALL_CLOCK = rule(
    "DET001", "wall-clock", Severity.ERROR, "det",
    "Host wall-clock read; sim code must use kernel.now.",
)
UNSEEDED_RANDOM = rule(
    "DET002", "unseeded-random", Severity.ERROR, "det",
    "Module-level random draw; use a seeded RngStreams stream.",
)
ENTROPY = rule(
    "DET003", "entropy", Severity.ERROR, "det",
    "OS entropy source (urandom/uuid4/secrets) breaks seed replay.",
)
UNORDERED_FANOUT = rule(
    "DET004", "unordered-fanout", Severity.ERROR, "det",
    "Event fan-out iterates a set; order varies with PYTHONHASHSEED.",
)
ID_ORDERING = rule(
    "DET005", "id-ordering", Severity.ERROR, "det",
    "id()-based ordering depends on allocator addresses.",
)
AMBIENT_IO = rule(
    "DET006", "ambient-io", Severity.ERROR, "det",
    "Environment/filesystem read; sim inputs must come from config or seed.",
)

#: Callables (resolved dotted names) that read the host clock.
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "datetime.now", "datetime.utcnow",
}

#: Draw functions on the global `random` module (random.Random methods are fine).
_RANDOM_DRAWS = {
    "random", "randint", "randrange", "random.choice", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    "lognormvariate", "getrandbits", "randbytes", "seed",
}

_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

_AMBIENT_CALLS = {
    "os.getenv", "os.environ.get", "os.listdir", "os.scandir", "os.walk",
    "os.stat", "os.getcwd", "os.path.exists", "os.path.getmtime", "os.path.getsize",
    "os.cpu_count", "open", "io.open",
}
_AMBIENT_ATTRS = {"os.environ", "sys.argv"}

#: Call names that constitute event fan-out when made inside a loop body.
_FANOUT_CALLS = {"schedule", "spawn", "send", "succeed", "interrupt", "fire", "notify"}


def _is_set_expr(node: ast.AST, set_attrs: Set[str]) -> Optional[str]:
    """A human label when *node* is statically set-typed, else None."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in ("set", "frozenset"):
            return f"{callee}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            inner = _is_set_expr(node.func.value, set_attrs)
            if inner is not None:
                return f"keys() of {inner}"
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("union", "intersection", "difference", "symmetric_difference"):
            if _is_set_expr(node.func.value, set_attrs) is not None:
                return f"set.{node.func.attr}(...)"
    if isinstance(node, (ast.BinOp,)) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        left = _is_set_expr(node.left, set_attrs)
        right = _is_set_expr(node.right, set_attrs)
        if left is not None and right is not None:
            return "set expression"
    name = dotted_name(node)
    if name is not None and name in set_attrs:
        return f"set attribute {name}"
    return None


def _set_typed_attrs(tree: ast.Module) -> Set[str]:
    """``self.x`` attribute paths assigned a set anywhere in the module."""
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets, value = [node.target], node.value
            annotation = dotted_name(node.annotation) or ""
            if annotation.split(".")[-1] in ("Set", "FrozenSet", "set", "frozenset"):
                name = dotted_name(node.target)
                if name is not None:
                    attrs.add(name)
        if value is None:
            continue
        if isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call) and dotted_name(value.func) in ("set", "frozenset")
        ):
            for target in targets:
                name = dotted_name(target)
                if name is not None:
                    attrs.add(name)
    return attrs


def _calls_fanout(body: Sequence[ast.stmt]) -> Optional[ast.Call]:
    """First event-scheduling call inside *body*, if any."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is not None and callee.split(".")[-1] in _FANOUT_CALLS:
                    return node
    return None


def _check_file(source_file: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    tree = source_file.tree
    if tree is None:
        return findings
    aliases = source_file.aliases
    set_attrs = _set_typed_attrs(tree)
    path = source_file.path

    def emit(rule_obj, node: ast.AST, message: str) -> None:
        findings.append(Finding(rule_obj, path, node.lineno, node.col_offset, message))

    for node in ast.walk(tree):
        # -- call-shaped rules ------------------------------------------
        if isinstance(node, ast.Call):
            callee = resolve_call_name(node, aliases)
            if callee is not None:
                if callee in _WALL_CLOCK_CALLS:
                    emit(WALL_CLOCK, node, f"{callee}() reads the host clock; use kernel.now")
                elif callee in _ENTROPY_CALLS or callee.startswith("secrets."):
                    emit(ENTROPY, node, f"{callee}() draws OS entropy; derive from the master seed")
                elif callee.startswith("numpy.random.") or callee.startswith("np.random."):
                    emit(UNSEEDED_RANDOM, node, f"{callee}() uses numpy's global RNG; use RngStreams")
                elif callee == "random.Random" and not node.args and not node.keywords:
                    emit(UNSEEDED_RANDOM, node, "random.Random() with no seed; pass a seed from RngStreams")
                elif "." in callee:
                    head, _, tail = callee.partition(".")
                    if aliases.get(head, head) == "random" and tail in _RANDOM_DRAWS:
                        emit(
                            UNSEEDED_RANDOM, node,
                            f"{callee}() draws from the shared global RNG; use rng.stream(name)",
                        )
                elif callee in _RANDOM_DRAWS and aliases.get(callee, "") == f"random.{callee}":
                    emit(UNSEEDED_RANDOM, node, f"{callee}() imported from random; use rng.stream(name)")
                if callee in _AMBIENT_CALLS:
                    emit(AMBIENT_IO, node, f"{callee}() reads ambient host state")
            # id()-based ordering: id used as a sort key or inside key funcs
            if dotted_name(node.func) in ("sorted", "min", "max"):
                for keyword in node.keywords:
                    if keyword.arg == "key":
                        key_src = ast.dump(keyword.value)
                        if (isinstance(keyword.value, ast.Name) and keyword.value.id == "id") or "func=Name(id='id'" in key_src:
                            emit(ID_ORDERING, node, "ordering keyed on id(); addresses differ across runs")
        # -- attribute-shaped ambient reads -----------------------------
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name in _AMBIENT_ATTRS and isinstance(node.ctx, ast.Load):
                emit(AMBIENT_IO, node, f"{name} read; sim inputs must come from config or seed")
        # -- id() in comparisons ----------------------------------------
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(op, ast.Call) and dotted_name(op.func) == "id" for op in operands
            ) and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                emit(ID_ORDERING, node, "comparison on id(); addresses differ across runs")
        # -- unordered fan-out ------------------------------------------
        if isinstance(node, (ast.For, ast.AsyncFor)):
            label = _is_set_expr(node.iter, set_attrs)
            if label is not None:
                fanout = _calls_fanout(node.body)
                if fanout is not None:
                    emit(
                        UNORDERED_FANOUT, node,
                        f"loop over {label} schedules events "
                        f"({dotted_name(fanout.func)} at line {fanout.lineno}); wrap in sorted()",
                    )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            for comp in node.generators:
                label = _is_set_expr(comp.iter, set_attrs)
                if label is not None and isinstance(node.elt, ast.Call):
                    callee = dotted_name(node.elt.func)
                    if callee is not None and callee.split(".")[-1] in _FANOUT_CALLS:
                        emit(UNORDERED_FANOUT, node, f"comprehension over {label} schedules events; wrap in sorted()")
    return findings


def run(program: Program) -> List[Finding]:
    """Pass entry point."""
    findings: List[Finding] = []
    for source_file in program.files:
        findings.extend(_check_file(source_file))
    return findings
