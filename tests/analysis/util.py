"""Helpers for the analysis self-tests: run passes over inline snippets."""

from __future__ import annotations

import ast
import textwrap
from typing import List, Sequence

from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import Finding
from repro.analysis.program import Pass, run_passes
from repro.analysis.suppress import parse_suppressions
from repro.analysis.walker import SourceFile


def make_file(source: str, path: str = "snippet.py") -> SourceFile:
    """Build a SourceFile from an inline snippet (dedented)."""
    source = textwrap.dedent(source)
    return SourceFile(path, source, ast.parse(source, filename=path), parse_suppressions(path, source))


def analyze(
    source: str, *passes: Pass, path: str = "snippet.py", max_k: int = DEFAULT_MAX_K
) -> List[Finding]:
    """Run *passes* over one snippet's Program, suppressions applied."""
    return run_passes([make_file(source, path)], list(passes), max_k)


def rule_ids(findings: Sequence[Finding]) -> List[str]:
    """The rule ids of *findings*, in report order."""
    return [finding.rule.rule_id for finding in findings]
