"""Helpers for the analysis self-tests: run passes over inline snippets."""

from __future__ import annotations

import ast
import functools
import os
import textwrap
from typing import List, Sequence

import repro
from repro.analysis.findings import Finding
from repro.analysis.program import Pass, Program, run_passes
from repro.analysis.suppress import parse_suppressions
from repro.analysis.walker import SourceFile, load_sources


def make_file(source: str, path: str = "snippet.py") -> SourceFile:
    """Build a SourceFile from an inline snippet (dedented)."""
    source = textwrap.dedent(source)
    return SourceFile(path, source, ast.parse(source, filename=path), parse_suppressions(path, source))


def analyze(source: str, *passes: Pass, path: str = "snippet.py") -> List[Finding]:
    """Run *passes* over one snippet's Program, suppressions applied."""
    return run_passes([make_file(source, path)], list(passes))


def rule_ids(findings: Sequence[Finding]) -> List[str]:
    """The rule ids of *findings*, in report order."""
    return [finding.rule.rule_id for finding in findings]


def method_chain(hops: int, leaf: str) -> str:
    """Methods ``_hop1`` .. ``_hop{hops}``, each calling the next; the last runs *leaf*.

    A method whose body is ``self._hop1()`` reaches *leaf* in exactly
    *hops* call hops.  The source is indented as a class body.
    """
    methods = [f"    def _hop{i}(self):\n        self._hop{i + 1}()\n" for i in range(1, hops)]
    methods.append(f"    def _hop{hops}(self):\n        {leaf}\n")
    return "\n".join(methods)


@functools.cache
def package_program() -> Program:
    """One Program over the whole ``repro`` package, loaded once per test run.

    The manifest tests only read it (its call graph), so they share it.
    """
    files, load_findings = load_sources([os.path.dirname(repro.__file__)])
    assert load_findings == []
    return Program(files)
