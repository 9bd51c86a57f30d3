"""Command-line driver: ``python -m repro.perf`` / ``oftt-perf``.

One subcommand, ``check-chaos``: the parallel-equivalence gate used by
``make verify``.  It runs one small chaos campaign serially and again
at ``--jobs N`` and requires the rendered ``repro.chaos/v1`` JSON (and
the text report) to be byte-identical.  Exit 0 on equality, 1 on any
difference, 2 on usage error.

Example::

    python -m repro.perf check-chaos --seeds 2 --schedules 2 --jobs 2
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# oftt-lint: file-ok[ambient-io] -- the perf driver is a host-side CLI.
from repro.chaos.report import render_json, render_text
from repro.perf.executor import add_jobs_argument


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-perf",
        description="Parallel-equivalence gate for the OFTT toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check-chaos",
        help="run a campaign serially and at --jobs N; require byte-identical reports",
    )
    check.add_argument("--seeds", type=int, default=2, help="seeds to campaign over (default: 2)")
    check.add_argument("--schedules", type=int, default=2, help="schedules per seed (default: 2)")
    check.add_argument("--seed-base", type=int, default=0, help="first seed value (default: 0)")
    add_jobs_argument(check, default=2)
    return parser


def check_chaos(seeds: int, schedules: int, seed_base: int, jobs: int) -> int:
    """Byte-equality of a campaign across worker counts; exit-style int."""
    from repro.chaos.cli import campaign  # late import: keeps --help fast

    serial = campaign(seeds, schedules, seed_base, jobs=1)
    parallel = campaign(seeds, schedules, seed_base, jobs=jobs)
    checks = [
        ("json", render_json(serial), render_json(parallel)),
        ("text", render_text(serial), render_text(parallel)),
    ]
    failed = [name for name, first, second in checks if first != second]
    runs = seeds * schedules
    if failed:
        print(f"check-chaos: {runs} run(s), jobs={jobs}: DIVERGED in {', '.join(failed)} report(s)")
        for name, first, second in checks:
            if first != second:
                for line_a, line_b in zip(first.splitlines(), second.splitlines()):
                    if line_a != line_b:
                        print(f"  first {name} difference:\n    serial:   {line_a}\n    parallel: {line_b}")
                        break
        return 1
    print(f"check-chaos: {runs} run(s) byte-identical at --jobs 1 and --jobs {jobs}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.seeds < 1 or options.schedules < 1:
        print("oftt-perf: --seeds and --schedules must be positive", file=sys.stderr)
        return 2
    return check_chaos(options.seeds, options.schedules, options.seed_base, options.jobs)


if __name__ == "__main__":
    sys.exit(main())
