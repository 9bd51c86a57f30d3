"""Command-line driver: ``python -m repro.replay`` / ``oftt-replay``.

Exit-code contract (mirrors ``oftt-lint``; relied on by ``make verify``
and the dogfood test):

* ``0`` — every checked subject is replay-deterministic
* ``1`` — at least one divergence or round-trip mismatch
* ``2`` — usage error (unknown subject)

Examples::

    python -m repro.replay --gate                 # the make-verify gate
    python -m repro.replay demo --seed 7          # one subject, one seed
    oftt-replay demo-campaign --format json       # machine output
    oftt-replay --list-subjects
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.perf.executor import add_jobs_argument, parallel_map
from repro.replay.report import render_json, render_text
from repro.replay.subjects import SUBJECTS, check_subject_task

#: Subjects ``--gate`` runs (currently: everything registered).
GATE_SUBJECTS = list(SUBJECTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-replay",
        description="Replay-divergence checker: run scenarios twice with the same seed and diff the traces.",
    )
    parser.add_argument("subjects", nargs="*",
                        help="subject names to check (default: all; see --list-subjects)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both runs of every subject (default: 0)")
    parser.add_argument("--gate", action="store_true",
                        help="run the full verification gate (all subjects, default seed)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--list-subjects", action="store_true",
                        help="print the subject catalogue and exit")
    add_jobs_argument(parser)
    return parser


def list_subjects() -> str:
    lines = []
    for subject in SUBJECTS.values():
        lines.append(f"{subject.name:32s} {subject.kind:10s} {subject.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_subjects:
        print(list_subjects())
        return 0

    requested: List[str] = GATE_SUBJECTS if options.gate else (list(options.subjects) or list(SUBJECTS))
    unknown = [name for name in requested if name not in SUBJECTS]
    if unknown:
        print(f"oftt-replay: unknown subject(s) {unknown}; available: {sorted(SUBJECTS)}", file=sys.stderr)
        return 2

    # Subjects are independent; fan out and merge in requested order so
    # the report is byte-identical for any --jobs value.
    tasks = [(name, options.seed) for name in requested]
    results = parallel_map(check_subject_task, tasks, jobs=options.jobs)

    if options.format == "json":
        sys.stdout.write(render_json(results))
    else:
        print(render_text(results))

    return 0 if all(result.ok for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
