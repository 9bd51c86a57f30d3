"""Pass 3 — sim race detector (RACE rules).

Events that land at the same simulated timestamp run in schedule order:
the kernel's strictly increasing sequence number breaks the tie
(:mod:`repro.simnet.kernel`).  That keeps replay deterministic, but it
also *hides* logical races — two handlers touching the same state at an
equal timestamp produce whichever outcome the incidental schedule order
picks, and an innocent reordering of ``schedule()`` calls flips the
result while every test keeps passing.

This pass approximates, per class, the set of methods used as scheduled
callbacks / process steps (anything passed to ``schedule``/``spawn``/
``add_callback``/``bind``) and a static read/write set of ``self.*``
attributes for each.  Pairs of handlers that can tie then yield:

* RACE001 ``race-write-write``   — both handlers store the same attribute
* RACE002 ``race-write-read``    — one stores what the other loads
* RACE003 ``race-container-iter``— one mutates a container the other iterates
* RACE004 ``race-loop-capture``  — closure passed to ``schedule`` captures
  the loop variable (late binding: every callback sees the last value)

RACE001–003 are warnings: the tiebreak order is sometimes the designed
behaviour (state machines stepping themselves).  Reviewed-and-intended
pairs are annotated ``# oftt-lint: ok[race-write-write]`` on the handler
``def`` line.  RACE004 is an error — it is a plain bug.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.walker import SourceFile, dotted_name, self_attr

WRITE_WRITE = rule(
    "RACE001", "race-write-write", Severity.WARNING, "race",
    "Two same-tick handlers write one attribute; seq-number order decides.",
)
WRITE_READ = rule(
    "RACE002", "race-write-read", Severity.WARNING, "race",
    "A same-tick handler reads what another writes; seq-number order decides.",
)
CONTAINER_ITER = rule(
    "RACE003", "race-container-iter", Severity.WARNING, "race",
    "A same-tick handler mutates a container another iterates.",
)
LOOP_CAPTURE = rule(
    "RACE004", "race-loop-capture", Severity.ERROR, "race",
    "Callback closure captures the loop variable; all callbacks see the last value.",
)

#: Method names through which a callable becomes an event handler.
#: Shared with the interprocedural effects pass (RACE101–103), which
#: must agree with this pass on what counts as a same-tick handler.
REGISTRARS = {"schedule", "add_callback", "bind", "spawn", "on_message", "subscribe"}

#: Container mutators treated as writes to the container attribute.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add", "discard",
    "update", "setdefault", "popitem", "appendleft", "popleft",
}


@dataclass
class _Effects:
    """Approximate effect set of one method, over ``self.*`` attributes."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    iterates: Set[str] = field(default_factory=set)
    mutates: Set[str] = field(default_factory=set)
    line: int = 0


def _method_effects(func: ast.FunctionDef) -> _Effects:
    effects = _Effects(line=func.lineno)
    for node in ast.walk(func):
        attr = self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):  # type: ignore[attr-defined]
                effects.writes.add(attr)
            else:
                effects.reads.add(attr)
        if isinstance(node, ast.AugAssign):
            target = self_attr(node.target)
            if target is not None:
                effects.writes.add(target)
                effects.reads.add(target)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = self_attr(node.func.value)
            if owner is not None and node.func.attr in _MUTATORS:
                effects.mutates.add(owner)
                effects.writes.add(owner)
        if isinstance(node, (ast.Subscript,)):
            owner = self_attr(node.value)
            if owner is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                effects.mutates.add(owner)
                effects.writes.add(owner)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            owner = self_attr(node.iter)
            if owner is None and isinstance(node.iter, ast.Call) and isinstance(node.iter.func, ast.Attribute):
                # for x in self.attr.items()/keys()/values()
                if node.iter.func.attr in ("items", "keys", "values"):
                    owner = self_attr(node.iter.func.value)
            if owner is not None:
                effects.iterates.add(owner)
                effects.reads.add(owner)
        if isinstance(node, ast.comprehension):
            owner = self_attr(node.iter)
            if owner is not None:
                effects.iterates.add(owner)
                effects.reads.add(owner)
    return effects


@dataclass
class ClassModel:
    """One class with its methods and the subset registered as handlers.

    Public because the effects pass (:mod:`repro.analysis.effects`)
    reuses the same handler attribution for its interprocedural rules.
    """

    name: str
    path: str
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    handlers: Set[str] = field(default_factory=set)


def _callback_method_name(node: ast.AST) -> Optional[str]:
    """``name`` for a ``self.name`` callback reference (or ``self.name()``)."""
    attr = self_attr(node)
    if attr is not None:
        return attr
    if isinstance(node, ast.Call):  # spawn(self._run()) — generator call
        return self_attr(node.func)
    return None


def collect_models(files: Sequence[SourceFile]) -> List[ClassModel]:
    """Per-class handler models, in file order (shared with effects)."""
    models: List[ClassModel] = []
    for source_file in files:
        if source_file.tree is None:
            continue
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            model = ClassModel(node.name, source_file.path)
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    model.methods[stmt.name] = stmt
            # A method becomes a handler when any method of the class (or
            # the module around it) registers self.<method> with the kernel.
            for func in model.methods.values():
                for call in ast.walk(func):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = dotted_name(call.func)
                    if callee is None or callee.split(".")[-1] not in REGISTRARS:
                        continue
                    for arg in list(call.args) + [kw.value for kw in call.keywords]:
                        name = _callback_method_name(arg)
                        if name is not None and name in model.methods:
                            model.handlers.add(name)
            models.append(model)
    return models


def _check_loop_capture(source_file: SourceFile) -> List[Finding]:
    """RACE004: lambda/def in a loop body, capturing the loop variable,
    passed to a registrar."""
    findings: List[Finding] = []
    tree = source_file.tree
    if tree is None:
        return findings
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        loop_vars = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        if not loop_vars:
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None or callee.split(".")[-1] not in REGISTRARS:
                continue
            for arg in node.args:
                if not isinstance(arg, ast.Lambda):
                    continue
                lambda_params = {a.arg for a in arg.args.args + arg.args.kwonlyargs}
                captured = {
                    n.id
                    for n in ast.walk(arg.body)
                    if isinstance(n, ast.Name) and n.id in loop_vars and n.id not in lambda_params
                }
                if captured:
                    names = ", ".join(sorted(captured))
                    findings.append(
                        Finding(LOOP_CAPTURE, source_file.path, arg.lineno, arg.col_offset,
                                f"lambda passed to {callee.split('.')[-1]}() captures loop variable "
                                f"{names}; bind it as a default or pass it as *args")
                    )
    return findings


def run(files: Sequence[SourceFile]) -> List[Finding]:
    """Pass entry point."""
    findings: List[Finding] = []
    for source_file in files:
        findings.extend(_check_loop_capture(source_file))

    for model in collect_models(files):
        if len(model.handlers) < 2:
            continue
        effects = {name: _method_effects(model.methods[name]) for name in sorted(model.handlers)}
        # Report one finding per (attribute, kind), naming every handler
        # involved, anchored at the first writer's def line.
        reported: Set[Tuple[str, str]] = set()
        names = sorted(model.handlers)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                a, b = effects[first], effects[second]
                for attr in sorted((a.writes & b.writes)):
                    if attr.startswith("__") or ("ww", attr) in reported:
                        continue
                    reported.add(("ww", attr))
                    writers = sorted(n for n in names if attr in effects[n].writes)
                    findings.append(
                        Finding(WRITE_WRITE, model.path, effects[writers[0]].line, 0,
                                f"{model.name}.{attr} written by same-tick handlers "
                                f"{', '.join(writers)}; order is only the seq tiebreak")
                    )
                for attr in sorted((a.writes & b.reads) | (b.writes & a.reads)):
                    if attr.startswith("__") or ("wr", attr) in reported or ("ww", attr) in reported:
                        continue
                    reported.add(("wr", attr))
                    writer = first if attr in a.writes else second
                    reader = second if writer == first else first
                    findings.append(
                        Finding(WRITE_READ, model.path, effects[writer].line, 0,
                                f"{model.name}.{attr} written by {writer} and read by {reader} "
                                f"in same-tick handlers; order is only the seq tiebreak")
                    )
                for attr in sorted((a.mutates & b.iterates) | (b.mutates & a.iterates)):
                    if ("ci", attr) in reported:
                        continue
                    reported.add(("ci", attr))
                    mutator = first if attr in a.mutates else second
                    findings.append(
                        Finding(CONTAINER_ITER, model.path, effects[mutator].line, 0,
                                f"{model.name}.{attr} mutated by {mutator} while another same-tick "
                                f"handler iterates it")
                    )
    return findings
