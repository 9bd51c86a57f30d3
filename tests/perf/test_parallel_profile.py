"""The persistent worker pool exercised across jobs profiles.

One interpreter (the tier-1 run, or ``pytest tests/perf`` alone) drives
the shared pool at jobs 1, 2 and 4, covering spawn-once reuse,
resize-respawn, the serial bypass, chunked dispatch, and byte-identity
of results across worker counts.
"""

from __future__ import annotations

import pytest

from repro.perf import executor
from repro.perf.executor import parallel_map, shutdown_pool, warm_pool


def square(value: int) -> int:
    return value * value


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate pool state: every test starts and ends pool-less."""
    shutdown_pool()
    yield
    shutdown_pool()


def test_results_identical_across_jobs_profiles():
    items = list(range(23))
    serial = parallel_map(square, items, jobs=1)
    assert serial == [square(item) for item in items]
    for jobs in (2, 4):
        assert parallel_map(square, items, jobs=jobs) == serial


def test_pool_spawns_once_and_is_reused():
    parallel_map(square, [1, 2, 3, 4], jobs=2)
    first = executor._pool
    assert first is not None
    parallel_map(square, [5, 6, 7, 8], jobs=2)
    assert executor._pool is first  # same executor object: no respawn


def test_pool_respawns_when_jobs_changes():
    parallel_map(square, [1, 2, 3, 4], jobs=2)
    first = executor._pool
    parallel_map(square, [1, 2, 3, 4], jobs=4)
    assert executor._pool is not first
    assert executor._pool_workers == 4
    # The replacement pool is itself persistent.
    again = executor._pool
    parallel_map(square, [9, 10, 11, 12], jobs=4)
    assert executor._pool is again


def test_serial_path_never_touches_the_pool():
    parallel_map(square, list(range(10)), jobs=1)
    assert executor._pool is None


def test_single_task_bypasses_the_pool():
    assert parallel_map(square, [6], jobs=4) == [36]
    assert executor._pool is None


def test_empty_input_stays_trivial():
    assert parallel_map(square, [], jobs=4) == []
    assert executor._pool is None


def test_warm_pool_prespawns_and_reports_workers():
    assert warm_pool(1) == 1
    assert executor._pool is None  # serial warm is a no-op
    assert warm_pool(2) == 2
    warmed = executor._pool
    assert warmed is not None
    parallel_map(square, [1, 2, 3, 4], jobs=2)
    assert executor._pool is warmed  # the warmed pool carried the work


def test_chunked_dispatch_preserves_order():
    items = list(range(37))
    expected = [square(item) for item in items]
    for chunksize in (None, 1, 5, 100):
        assert parallel_map(square, items, jobs=2, chunksize=chunksize) == expected


def test_shutdown_pool_is_idempotent_and_respawns_clean():
    parallel_map(square, [1, 2, 3, 4], jobs=2)
    shutdown_pool()
    shutdown_pool()
    assert executor._pool is None
    assert parallel_map(square, [2, 3], jobs=2) == [4, 9]
