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
``add_callback``/``bind``) and each one's direct (k = 0) effect summary
over ``self.*`` attributes (:meth:`Program.direct
<repro.analysis.program.Program.direct>`) — the records the effects pass
propagates, so both race families share one effect model.  Pairs of
handlers that can tie then yield:

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.callgraph import FunctionInfo
from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.walker import SourceFile, dotted_name, self_attr

if TYPE_CHECKING:  # the program module imports this one
    from repro.analysis.program import Program

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


@dataclass
class ClassModel:
    """One class with its methods and the subset registered as handlers.

    Public because the effects pass (:mod:`repro.analysis.effects`)
    reuses the same handler attribution for its interprocedural rules.
    """

    name: str
    module: str
    path: str
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    handlers: Set[str] = field(default_factory=set)

    def function(self, method: str) -> FunctionInfo:
        """*method* as a FunctionInfo (a class nested in a function has no call-graph key)."""
        qualname = f"{self.name}.{method}"
        key = f"{self.module}:{qualname}"
        return FunctionInfo(key, self.module, qualname, self.name, self.path, self.methods[method])


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
            model = ClassModel(node.name, source_file.module_name, source_file.path)
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


def _free_loop_vars(func: Union[ast.Lambda, ast.FunctionDef], loop_vars: Set[str]) -> Set[str]:
    """Loop variables a lambda or def uses without binding them itself.

    Its own parameters bind names (defaults included: ``lambda n=node:``,
    ``def fire(idx=idx):``), and so does a store in its body.
    """
    args = func.args
    bound = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    bound.update(arg.arg for arg in (args.vararg, args.kwarg) if arg is not None)
    used: Set[str] = set()
    for stmt in func.body if isinstance(func.body, list) else [func.body]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in loop_vars:
                if isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                else:
                    bound.add(node.id)
    return used - bound


def _check_loop_capture(source_file: SourceFile) -> List[Finding]:
    """RACE004: a lambda, or a def from the loop body passed by name, given
    to a registrar (by position or keyword) and using the loop variable free."""
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
        body = list(ast.walk(loop))
        defs = {n.name: n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in body:
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None or callee.split(".")[-1] not in REGISTRARS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    func, what = arg, "lambda"
                elif isinstance(arg, ast.Name) and arg.id in defs:
                    func, what = defs[arg.id], f"def {arg.id}"
                else:
                    continue
                captured = _free_loop_vars(func, loop_vars)
                if captured:
                    names = ", ".join(sorted(captured))
                    findings.append(
                        Finding(LOOP_CAPTURE, source_file.path, arg.lineno, arg.col_offset,
                                f"{what} passed to {callee.split('.')[-1]}() captures loop variable "
                                f"{names}; bind it as a default or pass it as *args")
                    )
    return findings


def run(program: Program) -> List[Finding]:
    """Pass entry point."""
    findings: List[Finding] = []
    for source_file in program.files:
        findings.extend(_check_loop_capture(source_file))

    for model in program.models:
        if len(model.handlers) < 2:
            continue
        names = sorted(model.handlers)
        effects = {name: program.direct(model.function(name)) for name in names}
        line = {name: model.methods[name].lineno for name in names}
        # Report one finding per (attribute, kind), naming every handler
        # involved, anchored at the first writer's def line.
        reported: Set[Tuple[str, str]] = set()
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                a, b = effects[first], effects[second]
                for attr in sorted(a.self_writes.keys() & b.self_writes.keys()):
                    if attr.startswith("__") or ("ww", attr) in reported:
                        continue
                    reported.add(("ww", attr))
                    writers = sorted(n for n in names if attr in effects[n].self_writes)
                    findings.append(
                        Finding(WRITE_WRITE, model.path, line[writers[0]], 0,
                                f"{model.name}.{attr} written by same-tick handlers "
                                f"{', '.join(writers)}; order is only the seq tiebreak")
                    )
                for attr in sorted(
                    (a.self_writes.keys() & b.self_reads.keys()) | (b.self_writes.keys() & a.self_reads.keys())
                ):
                    if attr.startswith("__") or ("wr", attr) in reported or ("ww", attr) in reported:
                        continue
                    reported.add(("wr", attr))
                    writer = first if attr in a.self_writes else second
                    reader = second if writer == first else first
                    findings.append(
                        Finding(WRITE_READ, model.path, line[writer], 0,
                                f"{model.name}.{attr} written by {writer} and read by {reader} "
                                f"in same-tick handlers; order is only the seq tiebreak")
                    )
                for attr in sorted(
                    (a.self_mutates.keys() & b.self_iterates.keys()) | (b.self_mutates.keys() & a.self_iterates.keys())
                ):
                    if ("ci", attr) in reported:
                        continue
                    reported.add(("ci", attr))
                    mutator = first if attr in a.self_mutates else second
                    findings.append(
                        Finding(CONTAINER_ITER, model.path, line[mutator], 0,
                                f"{model.name}.{attr} mutated by {mutator} while another same-tick "
                                f"handler iterates it")
                    )
    return findings
