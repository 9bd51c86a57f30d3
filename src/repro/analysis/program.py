"""The analysis context of one ``oftt-lint`` invocation, and pass orchestration.

Every pass takes a :class:`Program`: the analysed files and the
whole-program facts passes share — the call graph, the handler models
(:func:`repro.analysis.races.collect_models`), one direct (k = 0) effect
summary per function (the records RACE001–003 compare and propagation
starts from), the summaries propagated ``DEFAULT_MAX_K`` hops and the
top-level class table.  Each is built on first use and kept, so an
invocation builds none of them twice.  ANALYSIS.md ("The shared
propagation core") has the details.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Set, Tuple

# Called through their modules, so a test can count how often each runs.
from repro.analysis import callgraph, races, summaries
from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.findings import Finding
from repro.analysis.summaries import EffectSummary
from repro.analysis.walker import SourceFile, apply_suppressions, suppression_errors


class Program:
    """The files of one invocation plus what is built from them once."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        # module -> file, later files winning as in the call graph's alias table.
        self._by_module = {f.module_name: f for f in self.files if f.tree is not None}
        self._globals: Dict[str, Set[str]] = {}
        # Keyed by the def node: a class nested in a function has no
        # call-graph key, and its FunctionInfo comes from its ClassModel.
        self._direct: Dict[ast.AST, EffectSummary] = {}

    @cached_property
    def graph(self) -> CallGraph:
        return callgraph.build_call_graph(self.files)

    @cached_property
    def models(self) -> List[races.ClassModel]:
        return races.collect_models(self.files)

    @cached_property
    def summaries(self) -> Dict[str, EffectSummary]:
        graph = self.graph
        direct = {key: self.direct(info) for key, info in graph.functions.items()}
        return summaries.propagate(graph, direct)

    @cached_property
    def classes(self) -> Dict[Tuple[str, str], ast.ClassDef]:
        table: Dict[Tuple[str, str], ast.ClassDef] = {}
        for source_file in self.files:
            if source_file.tree is None:
                continue
            for node in source_file.tree.body:
                if isinstance(node, ast.ClassDef):
                    table[(source_file.module_name, node.name)] = node
        return table

    def direct(self, info: FunctionInfo) -> EffectSummary:
        """The effects *info*'s own body performs, computed once per function."""
        summary = self._direct.get(info.node)
        if summary is None:
            source_file = self._by_module[info.module]
            if info.module not in self._globals:
                self._globals[info.module] = summaries.module_global_names(source_file.tree)
            summary = summaries.direct_effects(info, self._globals[info.module], source_file.aliases)
            self._direct[info.node] = summary
        return summary


#: A pass: (program) -> findings.  Registered in cli.PASSES.
Pass = Callable[[Program], List[Finding]]


def run_passes(files: Sequence[SourceFile], passes: Sequence[Pass]) -> List[Finding]:
    """Run *passes* over one Program, apply per-file suppressions, and sort the survivors."""
    program = Program(files)
    findings: List[Finding] = []
    for one_pass in passes:
        findings.extend(one_pass(program))
    kept = apply_suppressions(findings, files)
    kept.extend(suppression_errors(files))
    kept.sort(key=Finding.sort_key)
    return kept
