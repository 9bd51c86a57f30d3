"""The executor contract: order-preserving, pure-task, jobs-invariant."""

from __future__ import annotations

import pytest

from repro.perf.executor import parallel_map, resolve_jobs


def double(value: int) -> int:
    """Module-level so spawn workers can import it by reference."""
    return value * 2


def explode(value: int) -> int:
    if value == 3:
        raise RuntimeError("task 3 exploded")
    return value


def test_serial_path_maps_in_order():
    assert parallel_map(double, [3, 1, 2], jobs=1) == [6, 2, 4]


def test_parallel_results_keep_task_order():
    items = list(range(20))
    assert parallel_map(double, items, jobs=2) == [double(item) for item in items]


def test_parallel_matches_serial():
    items = [5, 4, 3, 2, 1, 0]
    assert parallel_map(double, items, jobs=2) == parallel_map(double, items, jobs=1)


def test_empty_input():
    assert parallel_map(double, [], jobs=4) == []


def test_worker_error_propagates_serial_and_parallel():
    with pytest.raises(RuntimeError, match="task 3 exploded"):
        parallel_map(explode, [1, 2, 3, 4], jobs=1)
    with pytest.raises(RuntimeError, match="task 3 exploded"):
        parallel_map(explode, [1, 2, 3, 4], jobs=2)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1  # auto: host core count
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)
