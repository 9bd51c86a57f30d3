"""The per-call worker pool exercised across jobs profiles.

Covers the serial bypass (no pool is built for ``jobs=1``, a single
task or no tasks), chunked dispatch, and byte-identity of results
across worker counts 1, 2 and 4.
"""

from __future__ import annotations

import pytest

from repro.perf import executor
from repro.perf.executor import parallel_map


def square(value: int) -> int:
    return value * value


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if ``parallel_map`` builds a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("parallel_map built a process pool")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)


def test_results_identical_across_jobs_profiles():
    items = list(range(23))
    serial = parallel_map(square, items, jobs=1)
    assert serial == [square(item) for item in items]
    for jobs in (2, 4):
        assert parallel_map(square, items, jobs=jobs) == serial


def test_serial_path_never_touches_the_pool(no_pool):
    assert parallel_map(square, list(range(10)), jobs=1) == [square(item) for item in range(10)]


def test_single_task_bypasses_the_pool(no_pool):
    assert parallel_map(square, [6], jobs=4) == [36]


def test_empty_input_stays_trivial(no_pool):
    assert parallel_map(square, [], jobs=4) == []


def test_chunked_dispatch_preserves_order():
    # 37 tasks over 2 workers go out in chunks of 4 (a few per worker).
    items = list(range(37))
    assert parallel_map(square, items, jobs=2) == [square(item) for item in items]
