"""On-disk result cache for ``oftt-lint``.

``make verify`` lints the whole tree on every run; most runs touch a
handful of files.  The cache keys results two ways so a stale entry can
never mask a new finding:

* **Per-file passes** (currently ``det``) see one file at a time, so
  their findings are cached per ``(path, content sha)``.  Any edit —
  including adding or removing a suppression comment — changes the sha
  and forces a re-run of exactly that file.
* **Whole-program passes** (``com``, ``race``, ``effects``, ``hot``,
  ``life``) read cross-file context, so their findings are only reused
  when the *entire* project key matches: the sorted ``(path, sha)`` list
  of every analysed file plus the configuration (pass list, ``--max-k``,
  hot-manifest and lifecycle-manifest digests).  One changed byte
  anywhere re-runs them all.

Both halves are additionally keyed by a **rule-set version** — a digest
of every registered rule's id/slug/severity/pass — so upgrading the
toolkit invalidates everything.  A missing, corrupt, or foreign-schema
cache file is treated as empty; the cache is an accelerator, never a
source of truth.  ``--no-cache`` bypasses it entirely.

Cached findings are stored *after* suppression filtering (the comments
live in the hashed content) but *before* ``--relax`` downgrades and
sorting, which the CLI applies per invocation.
"""

from __future__ import annotations

# oftt-lint: file-ok[ambient-io] -- the cache is host-side tooling state;
# reading and writing it is the point.

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import AnalysisError, Finding, all_rules, is_known, lookup
from repro.analysis.program import Pass, Program
from repro.analysis.walker import SourceFile, apply_suppressions

SCHEMA = "repro.lint-cache/v1"

#: Default cache location, relative to the invocation cwd.
DEFAULT_PATH = ".oftt-lint-cache.json"

#: Pass names whose findings depend only on the one file they anchor to.
PER_FILE_PASSES = frozenset({"det"})


def ruleset_version() -> str:
    """Digest over the full rule catalogue; changes when any rule does."""
    digest = hashlib.sha256()
    for entry in all_rules():
        digest.update(
            f"{entry.rule_id}|{entry.slug}|{int(entry.severity)}|{entry.pass_name}|{entry.summary}\n".encode("utf-8")
        )
    return digest.hexdigest()[:16]


def _content_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def file_digest(path: str) -> str:
    """Content digest of an auxiliary input (e.g. the hot-root manifest)."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()[:16]
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc


def _project_key(shas: Dict[str, str], config_key: str) -> str:
    digest = hashlib.sha256()
    digest.update(config_key.encode("utf-8"))
    for path in sorted(shas):
        digest.update(f"\n{path}={shas[path]}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _encode(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule.rule_id,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }


def _decode(entry: Dict[str, object]) -> Optional[Finding]:
    rule_id = entry.get("rule")
    if not isinstance(rule_id, str) or not is_known(rule_id):
        return None
    try:
        return Finding(
            lookup(rule_id),
            str(entry["path"]),
            int(entry["line"]),  # type: ignore[arg-type]
            int(entry["col"]),  # type: ignore[arg-type]
            str(entry["message"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


def _load(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        return {}
    if data.get("ruleset") != ruleset_version():
        return {}
    return data


def _store(path: str, data: Dict[str, object]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        # A read-only tree or full disk degrades to "no cache", silently:
        # lint results must not depend on cache writability.
        try:
            os.remove(tmp)
        except OSError:
            pass


def run_cached(
    files: Sequence[SourceFile],
    named_passes: Sequence[Tuple[str, Pass]],
    cache_path: str,
    config_key: str,
    max_k: int = DEFAULT_MAX_K,
) -> Tuple[List[Finding], Dict[str, int]]:
    """Run *named_passes* with cache reuse; returns (findings, stats).

    Findings come back suppression-filtered but unsorted and
    un-relaxed — exactly what running the passes directly would yield.
    The whole-program passes share one :class:`Program` over *files*;
    a per-file pass gets its own over just the files it must re-run.
    ``stats`` reports ``{"files_reused": n, "project_reused": 0|1}`` for
    the text reporter's one-line cache note.
    """
    shas = {f.path: _content_sha(f.source) for f in files}
    pass_names = ",".join(name for name, _ in named_passes)
    project_key = _project_key(shas, f"{config_key};passes={pass_names}")
    cached = _load(cache_path)
    stats = {"files_reused": 0, "project_reused": 0}

    project = cached.get("project")
    if isinstance(project, dict) and project.get("key") == project_key:
        entries = project.get("findings")
        if isinstance(entries, list):
            decoded = [_decode(e) for e in entries if isinstance(e, dict)]
            if all(f is not None for f in decoded):
                stats["project_reused"] = 1
                stats["files_reused"] = len(files)
                return [f for f in decoded if f is not None], stats

    old_files = cached.get("files")
    if not isinstance(old_files, dict):
        old_files = {}
    findings: List[Finding] = []
    new_files: Dict[str, Dict[str, object]] = {
        path: {"sha": sha, "passes": {}} for path, sha in shas.items()
    }
    program = Program(files, max_k)
    for name, one_pass in named_passes:
        if name in PER_FILE_PASSES:
            findings.extend(_run_per_file(program, name, one_pass, shas, old_files, new_files, stats))
        else:
            findings.extend(apply_suppressions(one_pass(program), files))

    _store(
        cache_path,
        {
            "schema": SCHEMA,
            "ruleset": ruleset_version(),
            "project": {"key": project_key, "findings": [_encode(f) for f in findings]},
            "files": new_files,
        },
    )
    return findings, stats


def _run_per_file(
    program: Program,
    name: str,
    one_pass: Pass,
    shas: Dict[str, str],
    old_files: Dict[str, object],
    new_files: Dict[str, Dict[str, object]],
    stats: Dict[str, int],
) -> List[Finding]:
    reused: List[Finding] = []
    stale: List[SourceFile] = []
    for source_file in program.files:
        entry = old_files.get(source_file.path)
        hit: Optional[List[Finding]] = None
        if isinstance(entry, dict) and entry.get("sha") == shas[source_file.path]:
            stored = entry.get("passes", {})
            if isinstance(stored, dict) and name in stored and isinstance(stored[name], list):
                decoded = [_decode(e) for e in stored[name] if isinstance(e, dict)]
                if all(f is not None for f in decoded):
                    hit = [f for f in decoded if f is not None]
        if hit is None:
            stale.append(source_file)
        else:
            reused.extend(hit)
            stats["files_reused"] += 1
            new_files[source_file.path]["passes"][name] = [_encode(f) for f in hit]  # type: ignore[index]
    fresh: List[Finding] = []
    if stale:
        fresh = apply_suppressions(one_pass(Program(stale, program.max_k)), stale)
        by_path: Dict[str, List[Finding]] = {f.path: [] for f in stale}
        for finding in fresh:
            by_path.setdefault(finding.path, []).append(finding)
        for source_file in stale:
            per = by_path.get(source_file.path, [])
            new_files[source_file.path]["passes"][name] = [_encode(f) for f in per]  # type: ignore[index]
    return reused + fresh
