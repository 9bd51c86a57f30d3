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

Each parallel call opens its own pool and shuts it down before
returning, so no worker outlives the call that spawned it and no call
sees another's workers.  The CLIs fan out once per campaign they run,
so a pool kept between calls would only save repeat spawns.

Task functions must be module-level (pickled by reference) and their
arguments and results must be picklable.  Exceptions raised in a worker
propagate out of :func:`parallel_map` in the parent.
"""

from __future__ import annotations

import argparse
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Start method used for worker processes.  ``spawn`` (not ``fork``)
#: is deliberate: a forked worker would inherit the parent's entire
#: address space — exactly the ambient state the determinism contract
#: forbids.  The cost is one interpreter start per worker per call.
START_METHOD = "spawn"

#: Target chunks per worker.  Larger chunks amortize IPC per task; a
#: few chunks per worker keeps the tail balanced when task durations
#: vary.
_CHUNKS_PER_WORKER = 4


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


def parallel_map(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> List[R]:
    """Apply *fn* to every item, fanning out over *jobs* worker processes.

    Results are returned in input order regardless of completion order
    or chunking, which is what makes the merged output independent of
    worker count.  With ``jobs=1`` (the default), or fewer than two
    items, this is a plain serial loop and no pool is built.
    """
    tasks: List[T] = list(items)
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    chunksize = max(1, len(tasks) // (workers * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context(START_METHOD)) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


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
