"""The bench catalogue: micro sim hot paths, macro end-to-end workloads.

Every bench returns one dict with three parts::

    {"name": ..., "work": {...deterministic...}, "measured": {...timed...}}

``work`` is a pure function of the bench parameters (iteration counts,
event totals, checks) — the byte-stable half of the ``repro.bench/v1``
report.  ``measured`` holds wall seconds and rates from this run.

This module is the one sanctioned home of wall-clock reads in ``src``
(benchmarks exist to read the host clock); everything it *times* is
still fully deterministic sim code.
"""
# oftt-lint: file-ok[wall-clock] -- benchmarks time the host by definition.

from __future__ import annotations

import copy
import gc
import heapq
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.cli import campaign
from repro.chaos.report import render_json as chaos_render_json
from repro.apps.synthetic import SyntheticStateApp
from repro.harness.scenario import build_pair_env
from repro.replay.runner import checkpoint_roundtrip
from repro.replay.subjects import run_subject
from repro.simnet.kernel import SimKernel
from repro.simnet.trace import TraceLog

#: (seeds, schedules) per profile for the macro campaign bench.
CAMPAIGN_SHAPE = {"quick": (4, 5), "full": (10, 10)}
PROFILES = tuple(CAMPAIGN_SHAPE)

#: Checkpoint roundtrips per profile.  Sized so the full-profile sample
#: is ~0.5s of wall clock: the previous 20-roundtrip sample finished in
#: ~5ms, where one scheduler hiccup swamps any real change and the diff
#: threshold gates on noise.
ROUNDTRIP_COUNT = {"quick": 250, "full": 2000}

_WARMUP = 15_000.0  #: sim ms before the checkpoint bench starts capturing


#: Passes of :func:`reference_loop` timed before, and again after, the benches.
REFERENCE_PASSES = 5


def _timed(fn: Callable[[], Any]) -> tuple:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _rate(count: int, seconds: float) -> float:
    return round(count / seconds, 1) if seconds > 0 else 0.0


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def reference_loop() -> int:
    """Fixed stdlib-only work in the simulator's style: deep copies of
    nested plain data, a heap drained in order, small slotted objects.

    A yardstick for the host, not the code: it uses nothing from
    ``repro``, so when it reads faster or slower between two reports,
    the host moved.  13–18 ms per pass on a shared 2-vCPU x86-64 VM
    under CPython 3.11.
    """
    state = {f"v{i}": [i, {"t": float(i), "tags": ["a", "b"]}] for i in range(150)}
    for _ in range(12):
        copy.deepcopy(state)
    heap: List[Tuple[int, int]] = []
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)
    cells = [_Cell() for _ in range(300)]
    total = 0
    for step in range(20):
        for cell in cells:
            cell.value += step
            total += cell.value
    return total


def reference_seconds() -> List[float]:
    """Wall seconds of ``REFERENCE_PASSES`` timed runs of :func:`reference_loop`."""
    times = []
    for _ in range(REFERENCE_PASSES):
        gc.collect()
        times.append(_timed(reference_loop)[1])
    return times


def bench_kernel_events(n: int) -> Dict[str, Any]:
    """Schedule *n* no-op callbacks (cancelling every third) and drain.

    The cancel mix exercises the lazy-cancel skip in ``run()``, which
    passes over cancelled entries as it reaches them; ``pending`` must
    hit zero.
    """
    kernel = SimKernel()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    def drive() -> None:
        calls = [kernel.schedule(float(i % 997), tick) for i in range(n)]
        for call in calls[::3]:
            kernel.cancel(call)
        kernel.run()

    # Untimed warm-up on a throwaway kernel: pre-heats the allocator and
    # bytecode caches so the single timed pass measures steady state
    # rather than first-touch effects.
    warm = SimKernel()
    for i in range(min(n // 10, 20_000)):
        warm.schedule(float(i % 97), int)
    warm.run()

    _, seconds = _timed(drive)
    cancelled = len(range(0, n, 3))
    return {
        "name": "kernel-events",
        "work": {
            "scheduled": n,
            "cancelled": cancelled,
            "fired": fired[0],
            "drained": kernel.pending == 0,
        },
        "measured": {"wall_s": round(seconds, 4), "events_per_s": _rate(n, seconds)},
    }


def bench_trace_emits(n: int) -> Dict[str, Any]:
    """Emit *n* records, then fingerprint the log twice.

    Times the ``emit`` fast path plus the one-pass log fingerprint; the
    second, untimed call checks that the fingerprint is stable.
    """
    trace = TraceLog()

    def drive() -> TraceLog:
        for i in range(n):
            trace.emit("bench", f"component-{i % 7}", f"event-{i % 13}", index=i)
        return trace

    _, emit_seconds = _timed(drive)
    cold, cold_seconds = _timed(trace.fingerprint)
    return {
        "name": "trace-emits",
        "work": {
            "emitted": n,
            "selected": len(trace.select(category="bench", component="component-0")),
            "fingerprint_stable": cold == trace.fingerprint(),
        },
        "measured": {
            "wall_s": round(emit_seconds, 4),
            "emits_per_s": _rate(n, emit_seconds),
            "fingerprint_cold_s": round(cold_seconds, 4),
        },
    }


def bench_checkpoint_roundtrips(n: int) -> Dict[str, Any]:
    """Run *n* capture -> restore -> capture cycles on the pair scenario."""
    scenario = build_pair_env(seed=0, app_factory=lambda: SyntheticStateApp(cold_kb=8, mode="full"))
    scenario.start()
    scenario.run_for(_WARMUP)

    def drive() -> List[bool]:
        return [
            checkpoint_roundtrip(scenario, scenario.primary_app(), subject="bench", seed=0).ok
            for _ in range(n)
        ]

    oks, seconds = _timed(drive)
    return {
        "name": "checkpoint-roundtrips",
        "work": {"roundtrips": n, "ok": sum(oks)},
        "measured": {"wall_s": round(seconds, 4), "roundtrips_per_s": _rate(n, seconds)},
    }


def bench_chaos_campaign(profile: str, jobs: int) -> Dict[str, Any]:
    """Time the campaign serial and at *jobs* workers; require byte equality.

    This is the acceptance bench for the parallel executor: the speedup
    is whatever this host's cores deliver, but the reports must match
    byte-for-byte or the bench itself reports ``byte_identical: false``.
    """
    seeds, schedules = CAMPAIGN_SHAPE[profile]
    # Both halves record best-of-two: a one-shot wall time on a busy
    # host gates the diff on scheduler noise, not on the code.  Each
    # parallel campaign spawns its own pool, so its wall time includes
    # worker startup.
    serial, serial_a = _timed(lambda: campaign(seeds, schedules, 0, jobs=1))
    _, serial_b = _timed(lambda: campaign(seeds, schedules, 0, jobs=1))
    first, parallel_a = _timed(lambda: campaign(seeds, schedules, 0, jobs=jobs))
    parallel, parallel_b = _timed(lambda: campaign(seeds, schedules, 0, jobs=jobs))
    serial_seconds = min(serial_a, serial_b)
    parallel_seconds = min(parallel_a, parallel_b)
    serial_json = chaos_render_json(serial)
    return {
        "name": "chaos-campaign",
        "work": {
            "runs": seeds * schedules,
            "jobs": jobs,
            "failures": sum(1 for run in serial if not run.passed),
            "byte_identical": serial_json == chaos_render_json(first)
            and serial_json == chaos_render_json(parallel),
        },
        "measured": {
            "serial_wall_s": round(serial_seconds, 4),
            "parallel_wall_s": round(parallel_seconds, 4),
            "speedup": round(serial_seconds / parallel_seconds, 2) if parallel_seconds > 0 else 0.0,
        },
    }


def bench_replay_demo_campaign() -> Dict[str, Any]:
    """Time the heaviest replay subject: the §4 demo campaign, run twice."""
    result, seconds = _timed(lambda: run_subject("demo-campaign", seed=0))
    return {
        "name": "replay-demo-campaign",
        "work": {"ok": result.ok, "events": result.events},
        "measured": {"wall_s": round(seconds, 4)},
    }


def run_benches(
    profile: str = "quick", jobs: int = 2, only: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Run the bench catalogue for *profile*; bench order is fixed.

    *only* restricts the run to a single bench by name (hot-path
    iteration should not rerun the macro campaign); unknown names raise
    with the catalogue listed.
    """
    if profile not in CAMPAIGN_SHAPE:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    micro_n = 50_000 if profile == "quick" else 200_000
    catalogue: List[Tuple[str, Callable[[], Dict[str, Any]]]] = [
        ("kernel-events", lambda: bench_kernel_events(micro_n)),
        ("trace-emits", lambda: bench_trace_emits(micro_n)),
        ("checkpoint-roundtrips", lambda: bench_checkpoint_roundtrips(ROUNDTRIP_COUNT[profile])),
        ("chaos-campaign", lambda: bench_chaos_campaign(profile, jobs)),
        ("replay-demo-campaign", bench_replay_demo_campaign),
    ]
    if only is not None:
        names = [name for name, _ in catalogue]
        if only not in names:
            raise ValueError(f"unknown bench {only!r}; expected one of {names}")
        catalogue = [(name, fn) for name, fn in catalogue if name == only]
    return [fn() for _, fn in catalogue]
