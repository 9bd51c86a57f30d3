"""Process-pool fan-out that is byte-identical to the serial run.

Every workload this executor carries (chaos schedules, replay subjects,
experiments) is a *pure function of its picklable arguments*: a task
rebuilds its whole world (kernel, network, RNG streams) from the seed
it is handed, so where and when it executes cannot change its result.
The executor adds the remaining guarantees:

* **Canonical merge order** — results come back in input order
  (:func:`parallel_map` is order-preserving), so reports rendered from
  the merged list serialize byte-identically to the serial run.
* **No ambient inheritance** — workers are started with the ``spawn``
  method: each is a fresh interpreter that re-imports the code and
  receives nothing from the parent beyond the pickled task arguments
  (no forked RNG state, no module-global mutations, no open handles).
* **Serial path untouched** — ``jobs=1`` never touches
  :mod:`multiprocessing` at all; it is a plain in-process loop, so the
  existing single-core gates behave exactly as before.

The worker pool is **persistent**: the first parallel call spawns it,
and every later call with the same worker count reuses it, so a command
that fans out many times (campaign then replay check, the bench suite)
pays the spawn cost once instead of per call.  Reuse is sound
*because* of the purity contract above — the oftt-lint PURE001–004
pass rejects tasks that write module state, so a worker that already ran
ten tasks is indistinguishable from a fresh one.  (A task that mutated
its worker would already diverge from the serial run; pooling adds no
new failure mode, it just makes the existing contract load-bearing.)

Task functions must be module-level (pickled by reference) and their
arguments and results must be picklable.  Exceptions raised in a worker
propagate out of :func:`parallel_map` in the parent; a worker *crash*
(:class:`BrokenProcessPool`) tears the pool down so the next call starts
clean.
"""

from __future__ import annotations

import argparse
import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Start method used for worker processes.  ``spawn`` (not ``fork``)
#: is deliberate: a forked worker would inherit the parent's entire
#: address space — exactly the ambient state the determinism contract
#: forbids.  The cost is one interpreter start per worker, paid once
#: per process thanks to the persistent pool.
START_METHOD = "spawn"

#: Target chunks per worker when the caller lets chunksize default.
#: Larger chunks amortize IPC per task; a few chunks per worker keeps
#: the tail balanced when task durations vary.
_CHUNKS_PER_WORKER = 4

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means "one per CPU".

    This is the toolkit's one sanctioned ambient-host read: worker-count
    *defaults* may follow the hardware because they cannot change any
    result, only how fast it arrives (see PERF.md).
    """
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)  # oftt-lint: ok[ambient-io]
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)spawned only when the worker count changes."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        _pool.shutdown(wait=True)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context(START_METHOD)
        )
        _pool_workers = workers
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; next call respawns).

    Registered via :mod:`atexit` so interpreter shutdown never leaves
    spawn workers behind; tests and benchmarks may also call it directly
    to measure or isolate cold-start behaviour.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def warm_pool(jobs: Optional[int]) -> int:
    """Pre-spawn the pool for *jobs* workers; returns the worker count.

    Spawning interpreters is the executor's only non-amortized cost, so
    latency-sensitive callers (and honest benchmarks, which must not
    blame steady-state throughput for one-time startup) can front-load
    it.  A no-op for the serial path.
    """
    workers = resolve_jobs(jobs)
    if workers > 1:
        pool = _get_pool(workers)
        list(pool.map(_noop_task, range(workers)))
    return workers


def _noop_task(_: int) -> None:
    """Minimal picklable task used to force worker startup."""
    return None


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Apply *fn* to every item, fanning out over *jobs* worker processes.

    Results are returned in input order regardless of completion order
    or chunking, which is what makes the merged output independent of
    worker count.  With ``jobs=1`` (the default) this is a plain serial
    loop.  *chunksize* defaults to a few chunks per worker; any value
    yields the same results in the same order.
    """
    tasks: List[T] = list(items)
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    if chunksize is None:
        chunksize = max(1, len(tasks) // (workers * _CHUNKS_PER_WORKER))
    # The pool is sized by *jobs*, not by this call's task count: a
    # short task list leaves workers idle rather than respawning a
    # smaller pool (pool identity is what makes reuse pay).
    pool = _get_pool(workers)
    try:
        return list(pool.map(fn, tasks, chunksize=chunksize))
    except BrokenProcessPool:
        # A worker died mid-task (OOM-kill, segfaulting C extension, …).
        # The pool object is unusable from here on; drop it so the next
        # parallel_map starts from a clean spawn instead of failing.
        shutdown_pool()
        raise


def _jobs_value(text: str) -> int:
    """argparse type for ``--jobs``: an int >= 0, else a usage error.

    Rejecting a negative count while parsing (exit 2, nothing run) keeps
    it from reaching :func:`resolve_jobs` mid-run, where the error would
    surface as the CLIs' "violation" exit code 1.
    """
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {jobs}")
    return jobs


def add_jobs_argument(parser: Any, default: int = 1) -> None:
    """Attach the standard ``--jobs`` option to an argparse parser."""
    parser.add_argument(
        "--jobs", type=_jobs_value, default=default, metavar="N",
        help="worker processes for independent runs; 0 = one per CPU "
             f"(default: {default}; output is byte-identical for any value)",
    )
