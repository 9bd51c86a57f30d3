"""Shared helpers for the benchmark harness.

Every benchmark prints the result it regenerated, so ``pytest
benchmarks/ -s`` output doubles as the data recorded in EXPERIMENTS.md.
``pytest-benchmark`` additionally reports the wall-clock cost of running
each simulated experiment.

Because pytest captures stdout by default, every result is *also*
appended to ``.bench_build/experiment_tables.txt``, so the regenerated
data survives a capture-enabled run.  The file is truncated at the start
of each session and is not tracked: the parallel-campaign block records
host wall times, which differ on every run.
"""

from __future__ import annotations

import pathlib
from typing import Any

from repro.harness.reporting import format_result

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / ".bench_build" / "experiment_tables.txt"


def pytest_sessionstart(session) -> None:
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text("Regenerated experiment tables (see EXPERIMENTS.md)\n")


def print_result(title: str, result: Any) -> None:
    """Print (and persist) one result under its experiment title."""
    text = format_result(title, result)
    print()
    print(text)
    with RESULTS_PATH.open("a") as handle:
        handle.write("\n" + text + "\n")
