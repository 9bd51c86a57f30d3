"""``oftt-bench diff`` — compare two saved ``repro.bench/v1`` reports.

The report schema splits every bench into a deterministic ``work`` half
and a run-varying ``measured`` half (see :mod:`repro.bench.report`), and
the diff treats them accordingly:

* **work** halves must be byte-identical.  Any difference — a bench
  added or removed, a count changed, a profile/jobs mismatch — means the
  two reports did not execute the same workload, so their measurements
  are not comparable and the diff fails regardless of the numbers.
* **measured** halves are compared metric by metric against a relative
  noise threshold (default ``--threshold 0.25``: a metric must move 25 %
  in the bad direction to count).  Keys ending in ``_per_s`` and the
  ``speedup`` key are higher-is-better; other keys ending in ``_s`` are
  wall-clock style lower-is-better; anything else is reported but never
  gates.

Exit codes follow the analyzer's convention: ``0`` clean, ``1`` at
least one regression or work mismatch, ``2`` usage error (missing file,
wrong schema).

The diff also prints one ungated line on the host: the median time of
:func:`repro.bench.benches.reference_loop` that each report keeps in
its ``host`` block, and its change.  The loop runs no project code, so
when it moves, every measured figure moved with the host as well.
Reports saved before the loop existed read "not recorded".
"""

from __future__ import annotations

# oftt-lint: file-ok[ambient-io] -- the diff driver reads saved reports
# from disk; that is its job.

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.report import SCHEMA, deterministic_view, render_json

#: A metric must move this far (relative) in the bad direction to gate.
DEFAULT_THRESHOLD = 0.25


class BenchDiffError(Exception):
    """Usage-level failure: unreadable report, wrong schema."""


@dataclass(frozen=True)
class MetricDelta:
    """One measured metric compared across the two reports."""

    bench: str
    key: str
    old: float
    new: float
    direction: str  # "higher", "lower", or "neutral"

    @property
    def change(self) -> Optional[float]:
        """Relative change (new - old) / old, None when old == 0."""
        if self.old == 0:
            return None
        return (self.new - self.old) / self.old

    def regressed(self, threshold: float) -> bool:
        change = self.change
        if change is None or self.direction == "neutral":
            return False
        if self.direction == "higher":
            return change < -threshold
        return change > threshold

    def improved(self, threshold: float) -> bool:
        change = self.change
        if change is None or self.direction == "neutral":
            return False
        if self.direction == "higher":
            return change > threshold
        return change < -threshold


@dataclass
class DiffResult:
    work_mismatches: List[str] = field(default_factory=list)
    deltas: List[MetricDelta] = field(default_factory=list)
    #: Each report's host ``reference_s`` (None where not recorded).
    host_reference: Tuple[Optional[float], Optional[float]] = (None, None)

    def regressions(self, threshold: float) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed(threshold)]

    def improvements(self, threshold: float) -> List[MetricDelta]:
        return [d for d in self.deltas if d.improved(threshold)]


def metric_direction(key: str) -> str:
    """Which way is good for a measured key (see module docstring)."""
    if key.endswith("_per_s") or key == "speedup":
        return "higher"
    if key.endswith("_s"):
        return "lower"
    return "neutral"


def load_report(path: str) -> Dict[str, Any]:
    """Read and schema-check one saved report."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise BenchDiffError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise BenchDiffError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise BenchDiffError(
            f"{path} is not a {SCHEMA} report (schema={report.get('schema')!r})"
            if isinstance(report, dict) else f"{path} is not a {SCHEMA} report"
        )
    return report


def _work_mismatches(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Itemized reasons the deterministic halves differ (empty if none)."""
    if render_json(deterministic_view(old)) == render_json(deterministic_view(new)):
        return []
    mismatches: List[str] = []
    for key in ("profile", "jobs"):
        if old.get(key) != new.get(key):
            mismatches.append(f"{key}: {old.get(key)!r} != {new.get(key)!r}")
    old_work = {bench["name"]: bench.get("work", {}) for bench in old["benches"]}
    new_work = {bench["name"]: bench.get("work", {}) for bench in new["benches"]}
    for name in sorted(set(old_work) | set(new_work)):
        if name not in new_work:
            mismatches.append(f"bench {name}: only in old report")
        elif name not in old_work:
            mismatches.append(f"bench {name}: only in new report")
        elif old_work[name] != new_work[name]:
            keys = sorted(
                key for key in set(old_work[name]) | set(new_work[name])
                if old_work[name].get(key) != new_work[name].get(key)
            )
            mismatches.append(f"bench {name}: work differs ({', '.join(keys)})")
    if not mismatches:  # differs somewhere the itemizer does not model
        mismatches.append("deterministic views differ")
    return mismatches


def diff_reports(old: Dict[str, Any], new: Dict[str, Any]) -> DiffResult:
    """Compare two loaded reports; thresholds are applied by the caller."""
    result = DiffResult(
        work_mismatches=_work_mismatches(old, new),
        host_reference=(_reference_s(old), _reference_s(new)),
    )
    old_measured = {bench["name"]: bench.get("measured", {}) for bench in old["benches"]}
    new_measured = {bench["name"]: bench.get("measured", {}) for bench in new["benches"]}
    for name in sorted(set(old_measured) & set(new_measured)):
        shared = set(old_measured[name]) & set(new_measured[name])
        for key in sorted(shared):
            old_value, new_value = old_measured[name][key], new_measured[name][key]
            if isinstance(old_value, (int, float)) and isinstance(new_value, (int, float)):
                result.deltas.append(MetricDelta(
                    name, key, float(old_value), float(new_value), metric_direction(key),
                ))
    return result


def _reference_s(report: Dict[str, Any]) -> Optional[float]:
    host = report.get("host")
    value = host.get("reference_s") if isinstance(host, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def format_host_line(old: Optional[float], new: Optional[float]) -> str:
    """The host line: both reference-loop times and their change."""

    def shown(seconds: Optional[float]) -> str:
        return "not recorded" if seconds is None else f"{seconds * 1e3:.2f} ms"

    line = f"host: reference loop {shown(old)} -> {shown(new)}"
    if old and new is not None:
        line += f"  ({(new - old) / old:+.1%})"
    return line


def _format_delta(delta: MetricDelta, threshold: float) -> str:
    change = delta.change
    moved = "  ?   " if change is None else f"{change:+6.1%}"
    tag = "ok        "
    if delta.regressed(threshold):
        tag = "REGRESSION"
    elif delta.improved(threshold):
        tag = "improved  "
    elif delta.direction == "neutral":
        tag = "info      "
    return (
        f"  {tag} {delta.bench}.{delta.key}: "
        f"{delta.old:g} -> {delta.new:g}  ({moved})"
    )


def render_diff(
    old_path: str, new_path: str, result: DiffResult, threshold: float
) -> Tuple[str, int]:
    """(report text, exit code) for a computed diff."""
    lines = [f"bench diff: {old_path} -> {new_path} (threshold {threshold:.0%})"]
    if result.work_mismatches:
        lines.append("work: MISMATCH — reports did not run the same workload")
        lines.extend(f"  {reason}" for reason in result.work_mismatches)
    else:
        lines.append("work: identical")
    lines.append(format_host_line(*result.host_reference))
    regressions = result.regressions(threshold)
    improvements = result.improvements(threshold)
    if result.deltas:
        lines.append("measured:")
        lines.extend(_format_delta(delta, threshold) for delta in result.deltas)
    lines.append(
        f"{len(regressions)} regression(s), {len(improvements)} improvement(s), "
        f"{len(result.deltas) - len(regressions) - len(improvements)} within noise"
    )
    failed = bool(result.work_mismatches) or bool(regressions)
    return "\n".join(lines), 1 if failed else 0


def latest_pair(root: str) -> Optional[Tuple[str, str]]:
    """The two highest-numbered ``BENCH_<n>.json`` in *root*, oldest first.

    None when fewer than two exist — a fresh clone carries a single
    baseline, and ``make bench-diff`` must not fail there.
    """
    numbered: List[Tuple[int, str]] = []
    for name in sorted(os.listdir(root)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            digits = name[len("BENCH_"):-len(".json")]
            if digits.isdigit():
                numbered.append((int(digits), os.path.join(root, name)))
    if len(numbered) < 2:
        return None
    numbered.sort()
    return numbered[-2][1], numbered[-1][1]
