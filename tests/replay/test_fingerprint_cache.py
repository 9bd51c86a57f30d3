"""Repeated fingerprint/as_wire calls must never change what a diff computes.

Records compute their wire form and fingerprint on every call, and the
log keeps an incremental digest of the records it has already folded.
Each test builds a genuinely divergent pair of traces twice — once
diffed cold, once after every record and the log were fingerprinted
first — and requires the identical divergence either way.
"""

from __future__ import annotations

from repro.replay.canonical import canonicalize_trace
from repro.replay.diff import first_divergence
from repro.replay.runner import run_twice_and_diff
from repro.simnet.trace import TraceLog


def divergent_pair():
    """Two traces that agree for 8 records, then split."""
    first, second = TraceLog(), TraceLog()
    for log in (first, second):
        for i in range(8):
            log.emit("app", "calltrack", "tick", index=i)
    first.emit("app", "calltrack", "commit", value=1)
    second.emit("app", "calltrack", "abort", value=2)
    return first, second


def warm(log: TraceLog) -> None:
    for record in log.records:
        record.as_wire()
        record.fingerprint()
    log.fingerprint()


def test_warmed_caches_compute_the_same_divergence():
    cold_a, cold_b = divergent_pair()
    cold = first_divergence(canonicalize_trace(cold_a), canonicalize_trace(cold_b))

    warm_a, warm_b = divergent_pair()
    warm(warm_a)
    warm(warm_b)
    warmed = first_divergence(canonicalize_trace(warm_a), canonicalize_trace(warm_b))

    assert cold is not None and warmed is not None
    assert warmed.as_wire() == cold.as_wire()
    assert warmed.index == cold.index == 8


def test_warmed_caches_compute_the_same_replay_result():
    calls = []

    def flaky_factory(seed: int) -> TraceLog:
        # Deliberately non-deterministic factory: the second run differs.
        calls.append(seed)
        log = TraceLog()
        log.emit("app", "a", "start", run=len(calls) if len(calls) > 1 else 1)
        return log

    cold_result = run_twice_and_diff(flaky_factory, seed=0, subject="cache-check")

    calls.clear()

    def warming_factory(seed: int) -> TraceLog:
        log = flaky_factory(seed)
        warm(log)
        return log

    warm_result = run_twice_and_diff(warming_factory, seed=0, subject="cache-check")

    assert not cold_result.ok and not warm_result.ok
    assert warm_result.as_wire() == cold_result.as_wire()


def test_fingerprint_identical_for_identical_traces_cold_and_warm():
    a, _ = divergent_pair()
    b, _ = divergent_pair()
    warm(a)  # only one side warmed: caches must not leak into the hash
    assert a.fingerprint() == b.fingerprint()
