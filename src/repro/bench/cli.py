"""Command-line driver: ``python -m repro.bench`` / ``oftt-bench``.

Runs the bench catalogue and prints a ``repro.bench/v1`` JSON report.
``--save`` also writes the report to the next ``BENCH_<n>.json`` at the
repo root (or use ``--out PATH`` for an explicit destination)::

    oftt-bench                            # quick profile, report to stdout
    oftt-bench --profile full --jobs 4 --save
    python -m repro.bench --out /tmp/bench.json

The ``diff`` subcommand compares two saved reports — deterministic
``work`` halves byte-for-byte, ``measured`` halves against a noise
threshold (see :mod:`repro.bench.diff`)::

    oftt-bench diff BENCH_1.json BENCH_2.json
    oftt-bench diff --latest --threshold 0.10   # two newest in --root
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
from typing import Any, Dict, Optional, Sequence

# oftt-lint: file-ok[ambient-io] -- the bench driver reads host facts and writes reports.
from repro.bench import diff as diff_mod
from repro.bench.benches import PROFILES, reference_seconds, run_benches
from repro.bench.report import build_report, next_bench_path, render_json
from repro.perf.executor import add_jobs_argument


def host_facts() -> Dict[str, Any]:
    """The honest context a measurement is meaningless without."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-bench",
        description="Benchmark harness: sim hot paths and end-to-end campaign/replay workloads.",
    )
    parser.add_argument("--profile", choices=PROFILES, default="quick",
                        help="bench sizes: quick (default) or full (the 100-schedule campaign)")
    parser.add_argument("--only", default="", metavar="NAME",
                        help="run a single bench by name (e.g. kernel-events); "
                             "incompatible with --save/--out — partial reports "
                             "would poison the diff history")
    parser.add_argument("--save", action="store_true",
                        help="write the report to the next BENCH_<n>.json in --root")
    parser.add_argument("--root", default=".",
                        help="directory --save numbers reports in (default: current directory)")
    parser.add_argument("--out", default="", help="write the report to this exact path")
    add_jobs_argument(parser, default=2)
    return parser


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-bench diff",
        description="Compare two saved bench reports: work byte-identical, "
                    "measured within a noise threshold.",
    )
    parser.add_argument("reports", nargs="*", metavar="REPORT",
                        help="two BENCH_<n>.json paths, oldest first")
    parser.add_argument("--latest", action="store_true",
                        help="compare the two highest-numbered BENCH_<n>.json in --root")
    parser.add_argument("--root", default=".",
                        help="directory --latest searches (default: current directory)")
    parser.add_argument("--threshold", type=float, default=diff_mod.DEFAULT_THRESHOLD,
                        metavar="FRACTION",
                        help="relative move in the bad direction that counts as a "
                             f"regression (default: {diff_mod.DEFAULT_THRESHOLD})")
    return parser


def diff_main(argv: Sequence[str]) -> int:
    options = build_diff_parser().parse_args(argv)
    try:
        if options.threshold < 0:
            raise diff_mod.BenchDiffError(f"--threshold must be >= 0, got {options.threshold}")
        if options.latest:
            if options.reports:
                raise diff_mod.BenchDiffError("--latest takes no positional reports")
            pair = diff_mod.latest_pair(options.root)
            if pair is None:
                # A fresh history has one baseline; nothing to compare is
                # not a failure.
                print(f"bench diff: fewer than two BENCH_<n>.json in {options.root}; nothing to compare")
                return 0
            old_path, new_path = pair
        elif len(options.reports) == 2:
            old_path, new_path = options.reports
        else:
            raise diff_mod.BenchDiffError("expected exactly two reports (or --latest)")
        old = diff_mod.load_report(old_path)
        new = diff_mod.load_report(new_path)
    except diff_mod.BenchDiffError as exc:
        print(f"oftt-bench diff: {exc}", file=sys.stderr)
        return 2
    text, code = diff_mod.render_diff(
        old_path, new_path, diff_mod.diff_reports(old, new), options.threshold
    )
    print(text)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "diff":
        return diff_main(arguments[1:])
    options = build_parser().parse_args(arguments)
    if options.only and (options.save or options.out):
        print("oftt-bench: --only runs a partial catalogue; refusing to save it "
              "(drop --save/--out)", file=sys.stderr)
        return 2
    try:
        # The reference loop is timed before and after the benches, so the
        # host's speed over the whole run is on record for `diff`.
        reference = reference_seconds()
        benches = run_benches(profile=options.profile, jobs=options.jobs,
                              only=options.only or None)
        reference += reference_seconds()
    except ValueError as exc:
        print(f"oftt-bench: {exc}", file=sys.stderr)
        return 2
    host = host_facts()
    host["reference_s"] = round(statistics.median(reference), 5)
    report = build_report(benches, profile=options.profile, jobs=options.jobs, host=host)
    rendered = render_json(report)
    sys.stdout.write(rendered)

    destinations = []
    if options.out:
        destinations.append(options.out)
    if options.save:
        destinations.append(next_bench_path(options.root))
    for path in destinations:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {path}", file=sys.stderr)

    failed = [bench["name"] for bench in benches
              if not all(value is not False for value in bench["work"].values())]
    if failed:
        print(f"oftt-bench: work checks failed in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
