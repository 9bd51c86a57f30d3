"""Property tests for the calendar queue.

The kernel's calendar (buckets of entries per timestamp in schedule
order, lazy cancellation by clearing an entry's callback, stale handles
that stay harmless) is checked against a brute-force reference: a plain
``(time, seq)`` heap with a cancelled set.  Randomized seeded operation
sequences — schedule bursts with deliberate timestamp collisions,
cancels of live/fired/stale handles, partial ``run(until=...)`` windows
— must fire identically on both.

Pickle and deepcopy round-trips are exercised on awkward intermediate
states: lazily-cancelled calls still queued for the drain to skip, and a
kernel frozen mid-bucket by a raising callback.
"""

from __future__ import annotations

import copy
import heapq
import pickle
import random
from typing import List, Optional, Tuple

import pytest

from repro.simnet.kernel import ScheduleHandle, SimKernel

# Module-level sink so scheduled callbacks stay picklable by reference
# (pickled kernels must round-trip with their callbacks attached).
_SINK: List[int] = []


def _record(label: int) -> None:
    _SINK.append(label)


def _boom() -> None:
    raise RuntimeError("mid-bucket abort")


class ReferenceKernel:
    """Brute-force model: one big ``(time, seq, label)`` heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._cancelled: set = set()
        self._fired: set = set()

    def schedule(self, delay: float, label: int) -> int:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, label))
        return self._seq

    def cancel(self, handle: int) -> None:
        if handle not in self._fired:
            self._cancelled.add(handle)

    @property
    def pending(self) -> int:
        return sum(1 for _, seq, _ in self._heap if seq not in self._cancelled)

    def run(self, fired: List[Tuple[float, int]], until: Optional[float] = None) -> None:
        while self._heap:
            time, seq, label = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if seq in self._cancelled:
                continue
            self._fired.add(seq)
            self.now = time
            fired.append((time, label))
        if until is not None and self.now < until:
            self.now = until


#: Small delay pool so collisions (shared calendar buckets) are common.
_DELAYS = [0.0, 0.5, 1.0, 1.0, 2.5, 3.0, 3.0, 7.0, 11.0, 40.0]


@pytest.mark.parametrize("seed", range(12), ids="lazy-only-{}".format)
def test_randomized_ops_match_reference_heap(seed):
    rng = random.Random(seed)
    kernel = SimKernel()
    reference = ReferenceKernel()
    kernel_fired: List[Tuple[float, int]] = []
    reference_fired: List[Tuple[float, int]] = []
    handles: List[Tuple[ScheduleHandle, int]] = []  # (kernel handle, reference handle)
    label = 0

    for _step in range(400):
        op = rng.random()
        if op < 0.55:
            delay = rng.choice(_DELAYS)
            label += 1
            handles.append((
                kernel.schedule(delay, lambda l=label: kernel_fired.append((kernel.now, l))),
                reference.schedule(delay, label),
            ))
        elif op < 0.85 and handles:
            k_handle, r_handle = rng.choice(handles)  # may be live, fired, or stale
            kernel.cancel(k_handle)
            reference.cancel(r_handle)
            assert kernel.pending == reference.pending
        elif op < 0.95:
            until = kernel.now + rng.choice(_DELAYS)
            kernel.run(until=until)
            reference.run(reference_fired, until=until)
            assert kernel.now == reference.now
            assert kernel_fired == reference_fired
        else:
            kernel.run()
            reference.run(reference_fired)
            assert kernel.pending == reference.pending == 0

    kernel.run()
    reference.run(reference_fired)
    assert kernel_fired == reference_fired
    assert kernel.pending == reference.pending == 0


def _drain_labels(kernel: SimKernel) -> List[int]:
    """Run *kernel* to empty, collecting labels from _record calls."""
    del _SINK[:]
    kernel.run()
    return list(_SINK)


def _build_lazy_cancelled_kernel() -> SimKernel:
    kernel = SimKernel()  # 300 of 600 calls cancelled, still queued until drained
    handles = [kernel.schedule(float((i * 13) % 37), _record, i) for i in range(600)]
    for handle in handles[::2]:
        kernel.cancel(handle)
    return kernel


def test_pickle_roundtrip_with_lazily_cancelled_slots():
    kernel = _build_lazy_cancelled_kernel()
    clone = pickle.loads(pickle.dumps(kernel))
    assert clone.pending == kernel.pending == 300
    expected = _drain_labels(kernel)
    assert _drain_labels(clone) == expected
    assert clone.now == kernel.now


def test_deepcopy_roundtrip_with_lazily_cancelled_slots():
    kernel = _build_lazy_cancelled_kernel()
    clone = copy.deepcopy(kernel)
    expected = _drain_labels(kernel)
    assert _drain_labels(clone) == expected


def test_pickle_roundtrip_of_mid_bucket_kernel():
    """A kernel aborted inside a bucket must resume identically after pickling."""
    kernel = SimKernel()
    for i in range(6):
        kernel.schedule(5.0, _record, i)  # one shared bucket
    kernel.schedule(5.0, _boom)
    for i in range(6, 12):
        kernel.schedule(5.0, _record, i)
    kernel.schedule(9.0, _record, 99)
    del _SINK[:]
    with pytest.raises(RuntimeError, match="mid-bucket abort"):
        kernel.run()
    assert _SINK == [0, 1, 2, 3, 4, 5]
    clone = pickle.loads(pickle.dumps(kernel))
    assert clone.pending == kernel.pending
    resumed = _drain_labels(clone)
    assert resumed == list(range(6, 12)) + [99]
    assert clone.now == 9.0


def test_pickle_after_drain_drops_consumed_references():
    """Calls that ran never reach a pickle.

    A drained bucket leaves the kernel with its entries, which is what
    lets a kernel that ran unpicklable callbacks be pickled afterwards.
    """
    kernel = SimKernel()
    kernel.schedule(1.0, lambda: None)  # unpicklable on purpose
    kernel.run()
    clone = pickle.loads(pickle.dumps(kernel))  # must not choke on the lambda
    assert clone.pending == 0
    clone.schedule(1.0, _record, 7)
    del _SINK[:]
    clone.run()
    assert _SINK == [7]


def test_clock_stays_at_last_call_when_last_bucket_is_all_cancelled():
    kernel = SimKernel()
    kernel.schedule(2.0, _record, 1)
    kernel.schedule(3.0, _record, 2)
    doomed = [kernel.schedule(9.0, _record, 3), kernel.schedule(9.0, _record, 4)]
    for handle in doomed:
        kernel.cancel(handle)
    del _SINK[:]
    kernel.run()
    assert _SINK == [1, 2]
    assert kernel.now == 3.0
    assert kernel.pending == 0


def test_equal_calls_are_cancelled_independently():
    """Handles are identities: equal callback, args and time share nothing."""
    kernel = SimKernel()
    first = kernel.schedule(4.0, _record, 5)
    second = kernel.schedule(4.0, _record, 5)
    kernel.cancel(first)
    assert kernel.pending == 1
    assert _drain_labels(kernel) == [5]
    kernel.cancel(second)  # already ran
    assert kernel.pending == 0


def test_spent_handles_change_nothing():
    """Self-cancel, double cancel and cancel-after-run leave ``pending`` exact."""
    kernel = SimKernel()
    handles: List[ScheduleHandle] = []

    def cancel_self(label: int) -> None:
        kernel.cancel(handles[0])
        assert kernel.pending == 2
        _record(label)

    handles.append(kernel.schedule(1.0, cancel_self, 0))
    twice = kernel.schedule(1.0, _record, 1)
    kernel.schedule(1.0, _record, 2)
    kernel.schedule(6.0, _record, 3)
    kernel.cancel(twice)
    kernel.cancel(twice)
    assert kernel.pending == 3
    del _SINK[:]
    kernel.run(until=2.0)
    assert _SINK == [0, 2]
    assert kernel.pending == 1
    kernel.cancel(handles[0])  # its call ran
    kernel.cancel(twice)
    assert kernel.pending == 1
    assert _drain_labels(kernel) == [3]
    assert kernel.pending == 0
