"""Shared AST infrastructure: source loading, suppression filtering,
manifest reading and the small AST helpers the passes share.

A :class:`SourceFile` bundles one parsed module with its suppression
state and its import aliases (walked once, shared by every pass);
:func:`load_sources` walks the argument paths in sorted order so reports
are byte-stable across runs (the toolkit holds itself to the determinism
bar it enforces).  Passes take a :class:`repro.analysis.program.Program`,
which adds the project-wide context (call graph, class tables, handler
models, effect summaries) built once per invocation.
"""

from __future__ import annotations

# oftt-lint: file-ok[ambient-io] -- the analyzer is a host-side tool; it
# exists to read the filesystem.

import ast
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import SYNTAX_RULE, AnalysisError, Finding
from repro.analysis.suppress import Suppressions, parse_suppressions


@dataclass
class SourceFile:
    """One module under analysis."""

    path: str  # as reported (relative to the invocation cwd)
    source: str
    tree: Optional[ast.Module]  # None when the file does not parse
    suppressions: Suppressions

    @property
    def module_name(self) -> str:
        """Dotted module guess from the path (best effort, for messages)."""
        trimmed = self.path[:-3] if self.path.endswith(".py") else self.path
        parts = [part for part in trimmed.replace(os.sep, "/").split("/") if part not in ("", ".", "src")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """The module's import aliases (:func:`import_aliases`), walked once."""
        return import_aliases(self.tree) if self.tree is not None else {}


def _iter_python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    if not os.path.isdir(path):
        raise AnalysisError(f"no such file or directory: {path}")
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "__pycache__" and not d.endswith(".egg-info"))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def load_sources(paths: Sequence[str]) -> Tuple[List[SourceFile], List[Finding]]:
    """Load every ``*.py`` under *paths*; returns (files, parse findings).

    Files flagged ``skip-file`` are dropped here so no pass sees them.
    """
    files: List[SourceFile] = []
    findings: List[Finding] = []
    seen: Dict[str, bool] = {}
    for path in paths:
        for filename in _iter_python_files(path):
            if filename in seen:
                continue
            seen[filename] = True
            with open(filename, "r", encoding="utf-8") as handle:  # oftt-lint: ok[ambient-io]
                source = handle.read()
            suppressions = parse_suppressions(filename, source)
            if suppressions.skip_file:
                # The file is excluded from every pass, but its own
                # suppression mistakes must still surface: a misspelled
                # rule in a standalone `file-ok`/`skip-file` comment
                # would otherwise rot silently (GEN002).
                findings.extend(suppressions.errors)
                continue
            try:
                tree = ast.parse(source, filename=filename)
            except SyntaxError as exc:
                findings.append(
                    Finding(SYNTAX_RULE, filename, exc.lineno or 1, exc.offset or 0, f"syntax error: {exc.msg}")
                )
                tree = None
            files.append(SourceFile(filename, source, tree, suppressions))
    return files, findings


def apply_suppressions(findings: Sequence[Finding], files: Sequence[SourceFile]) -> List[Finding]:
    """Drop findings silenced by their file's ``# oftt-lint: ok[...]`` comments."""
    by_path = {f.path: f for f in files}
    kept: List[Finding] = []
    for finding in findings:
        owner = by_path.get(finding.path)
        if owner is None or owner.suppressions.allows(finding):
            kept.append(finding)
    return kept


def suppression_errors(files: Sequence[SourceFile]) -> List[Finding]:
    """Bad suppression comments are findings themselves (GEN002)."""
    errors: List[Finding] = []
    for source_file in files:
        errors.extend(source_file.suppressions.errors)
    return errors


def manifest_lines(path: str, what: str) -> List[Tuple[int, str]]:
    """``(lineno, text)`` of a manifest's directives; comments and blanks dropped.

    *what* names the manifest in the error an unreadable file raises
    (``cannot read hot-root manifest ...``); each pass parses its own
    grammar from the lines.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise AnalysisError(f"cannot read {what} manifest {path}: {exc}") from exc
    out: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            out.append((lineno, text))
    return out


# -- small AST helpers shared by the passes -------------------------------

#: Container-appending calls that mark a ``self`` attribute as growing
#: with event count (HOT003) or on a handler path (LIFE006).  Set/dict
#: ``add``/``setdefault`` are deliberately excluded: their membership
#: checks are O(1).
GROWTH_CALLS = {"append", "extend", "insert", "appendleft"}


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when *node* is exactly ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def parent_map(func: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` for every node under *func*."""
    parents: Dict[int, ast.AST] = {}
    for parent in ast.walk(func):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent
    return parents


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported dotted path, for Import/ImportFrom at any depth."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name if name.asname else name.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolve_call_name(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted callee name with its first segment resolved through imports.

    ``npr.shuffle(...)`` with ``import numpy.random as npr`` resolves to
    ``numpy.random.shuffle``; unresolvable callees return the raw dotted
    name (or None for computed callees).
    """
    raw = dotted_name(node.func)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved
