"""Chaos campaign on the persistent worker pool: speedup attribution.

The parallel executor promises two things: the campaign report is
byte-identical at any ``--jobs``, and the worker pool is spawned once
and reused, so interpreter startup is a one-time cost of the process
rather than a per-campaign tax.  This harness measures all three parts
separately — serial baseline, one-time spawn, warmed parallel run — so
the recorded speedup is honest about where the time went (on a one-core
host the pool cannot beat serial; the bench then documents the overhead
instead of hiding it).
"""

from __future__ import annotations

import time

from repro.chaos.cli import campaign
from repro.chaos.report import render_json
from repro.perf.executor import shutdown_pool, warm_pool

from benchmarks.conftest import print_result

_SEEDS, _SCHEDULES = 3, 4
_JOBS = 4


def run_attributed_campaign():
    shutdown_pool()  # measure a genuine cold spawn, not a leftover pool
    start = time.perf_counter()
    serial = campaign(_SEEDS, _SCHEDULES, 0, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    workers = warm_pool(_JOBS)
    spawn_s = time.perf_counter() - start

    # First dispatch: workers import the repro package (the task fn is
    # pickled by reference).  One-time cost of the persistent pool.
    start = time.perf_counter()
    first = campaign(_SEEDS, _SCHEDULES, 0, jobs=_JOBS)
    first_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = campaign(_SEEDS, _SCHEDULES, 0, jobs=_JOBS)
    parallel_s = time.perf_counter() - start

    serial_json = render_json(serial)
    return {
        "runs": _SEEDS * _SCHEDULES,
        "workers": workers,
        "byte_identical": serial_json == render_json(first)
        and serial_json == render_json(parallel),
        "serial_wall_s": round(serial_s, 4),
        "pool_spawn_s": round(spawn_s, 4),
        "first_dispatch_wall_s": round(first_s, 4),
        "warm_parallel_wall_s": round(parallel_s, 4),
        "warm_speedup": round(serial_s / parallel_s, 2) if parallel_s > 0 else 0.0,
    }


def test_bench_parallel_campaign(benchmark):
    result = benchmark.pedantic(run_attributed_campaign, rounds=1, iterations=1)
    print_result("Persistent pool: chaos campaign serial vs jobs=4 (spawn attributed)", result)
    assert result["byte_identical"]
    assert result["workers"] == _JOBS
    # Warmed pool must be within noise of serial even on a one-core
    # host; real speedup only arrives with real cores.
    assert result["warm_speedup"] > 0.5
