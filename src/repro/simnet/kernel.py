"""The discrete-event simulation kernel.

:class:`SimKernel` maintains a calendar of timestamped calls and a
monotonically increasing simulated clock.  Work is expressed either as a
plain scheduled callback (:meth:`SimKernel.schedule`) or as a cooperative
:class:`Process` wrapping a generator that yields
:mod:`repro.simnet.events` waitables.

Determinism: calls at equal timestamps run in the order they were
scheduled, and all randomness flows through
:class:`repro.simnet.random.RngStreams`.  Two runs with the same seed
produce identical traces.

One drain loop (:meth:`SimKernel._drain`, under :meth:`SimKernel.run`)
runs every call, and an exception escaping a callback or a process body
ends :meth:`SimKernel.run`.

Hot-path notes (``SimKernel.run``/``_drain``/``schedule``/``cancel`` are
hot roots in ``repro/analysis/hotpath.manifest``): each scheduled call
is one plain list, an *entry* ``[callback, args, time]``, and the entry
is also the handle :meth:`SimKernel.schedule` returns.
Entries for the same timestamp share one *calendar bucket* (a plain list,
in schedule order), and a ``heapq`` of the distinct timestamps orders the
buckets:

* within a bucket, list order *is* schedule order, the only tie-break,
  so equal timestamps need no comparisons at all;
* across buckets, the heap compares raw floats in C and holds one item
  per *distinct* timestamp rather than one per call.  Sim workloads are
  heavily collisional (periodic heartbeats, sweeps, retries), so the
  heap stays small; the all-unique worst case is a plain float heap.

A call that ran or was cancelled has its callback cleared to ``None``.
Entries are never reused, so a stale handle is harmless: the drain skips
a cleared entry, and cancelling one again does nothing.  A finished
bucket leaves the kernel with its entries.

The entries replaced struct-of-arrays slot columns (times, sequence
numbers, callbacks, arguments) recycled through a free list and
addressed by bit-packed int handles.  Under CPython 3.11 building one
3-item list costs less than four column stores, a free-list pop, a
sequence bump and packing a handle, and the drain stopped reconciling
counters and returning slots per bucket: one self-re-arming timer went
from 1.3–1.9 µs to 0.56–0.70 µs per event on a shared 2-vCPU VM
(PERF.md §5, "Eleventh round").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import SimError
from repro.simnet.events import Timeout, Waitable

# Bound once at import so the per-event loops skip the module-attribute
# lookup (HOT006 dogfood; see ANALYSIS.md "Hot-path rules").
_heappush = heapq.heappush
_heappop = heapq.heappop

#: A schedule handle is the call's calendar entry, ``[callback, args,
#: time]``.  Callers treat it as opaque and compare handles by identity
#: only: two calls with the same callback, args and time are equal lists.
ScheduleHandle = List[Any]


class Process(Waitable):
    """A cooperative process driving a generator.

    The process is itself a :class:`Waitable`: it fires with the
    generator's return value when the generator finishes, so processes can
    ``yield`` other processes to join them.
    """

    def __init__(self, kernel: "SimKernel", generator: Generator[Waitable, Any, Any], name: str = "") -> None:
        super().__init__()
        self.kernel = kernel
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.error: Optional[BaseException] = None
        self._waiting_on: Optional[Waitable] = None

    # -- lifecycle -------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process without running any more of its body.

        The generator is closed (``generator.close()``), never resumed —
        this models an OS-level kill.  The process fires with value
        ``None``.  A process may kill itself (a thread tearing down
        its own process): the generator is then abandoned at its next
        yield instead of closed in place.
        """
        if not self.alive:
            return
        self.alive = False
        self._waiting_on = None
        try:
            self.generator.close()
        except ValueError:
            # "generator already executing": self-kill from inside the
            # body.  _step() checks `alive` after each resume and will
            # drop the generator at its next yield.
            pass
        if not self.fired:
            self._fire(None)

    # -- stepping --------------------------------------------------------

    def _start(self) -> None:
        self.kernel.schedule(0.0, self._step, None)

    # The _waiting_on handshake with _step IS the stale-resume guard;
    # the same-tick write/read below is the designed protocol.
    # The interprocedural write-writes (alive/error/_value/... via
    # _step -> _fire from both entry points) are the same protocol:
    # _step is re-entered only through the _waiting_on guard.  So is the
    # write-write with _resume_from: each clears _waiting_on only while
    # it still names its own waitable.
    def _on_wait_fired(self, waitable: Waitable) -> None:  # oftt-lint: ok[race-write-read,race-write-write,ip-race-write-write]
        if self._waiting_on is waitable:
            self._waiting_on = None
            self._step(waitable.value)

    def _step(self, send_value: Any) -> None:
        if not self.alive:
            return
        if self._waiting_on is not None:
            # Resumed while still suspended on a waitable: only that
            # waitable's callback (_on_wait_fired) may resume the body.
            return
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self._fire(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - re-raised by the drain
            self.alive = False
            self.error = exc
            self.kernel._raised = exc
            if not self.fired:
                self._fire(None)
            return
        if not self.alive:
            return  # killed itself (or was killed) while executing
        self._wait_on(target)

    def _wait_on(self, target: Waitable) -> None:
        if isinstance(target, Timeout) and not target._armed:
            # The first process to wait on a timeout arms it, and the
            # armed call is this process's resume.
            target._armed = True
            self._waiting_on = target
            self.kernel.schedule(target.delay, self._resume_from, target)
            return
        if not isinstance(target, Waitable):
            raise SimError(f"process {self.name} yielded non-waitable {target!r}")
        self._waiting_on = target
        target.add_callback(self._on_wait_fired)

    def _resume_from(self, timeout: Timeout) -> None:
        """Fire *timeout*, which this process armed, resuming the process first.

        This is :meth:`Waitable._fire` with :meth:`_on_wait_fired` as
        the first callback, without registering it: the timeout is marked
        fired with its value, the process steps if it still waits on it,
        and then the callbacks that others added run in the order they
        were added.  A killed process's timeout still fires.
        """
        timeout._fired = True
        value = timeout._value = timeout.timeout_value
        if self._waiting_on is timeout:
            self._waiting_on = None
            self._step(value)
        callbacks = timeout._callbacks
        if callbacks:
            timeout._callbacks = []
            for callback in callbacks:
                callback(timeout)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"Process({self.name}, {state})"


class SimKernel:
    """Event loop and simulated clock.

    An uncaught exception inside a process ends the process (kept on
    :attr:`Process.error`) and propagates out of :meth:`run` once the
    call that raised it returns.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Calendar: one bucket (entries in schedule order) per distinct
        # timestamp, ordered by a heap of the raw floats.
        self._buckets: Dict[float, List[ScheduleHandle]] = {}
        self._times_heap: List[float] = []
        # The bucket being drained, already popped from ``_buckets``.  It
        # stays here until every entry in it is spent, so an exception
        # escaping ``run`` leaves the rest of the bucket for the next
        # ``run``; the cleared callbacks of the entries that ran are the
        # resume cursor.
        self._active_bucket: Optional[List[ScheduleHandle]] = None
        self._raised: Optional[BaseException] = None
        self._running = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> ScheduleHandle:
        """Run *callback(*args)* after *delay* simulated time units.

        Returns an opaque :data:`ScheduleHandle` accepted by
        :meth:`cancel`.  Handles stay harmless forever: cancelling an
        already-executed (or already-cancelled) call is a no-op.
        """
        if not delay >= 0.0:
            # Also rejects NaN, which would silently corrupt the time heap.
            raise SimError(f"negative delay: {delay}")
        time = self.now + delay
        entry = [callback, args, time]
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [entry]
            _heappush(self._times_heap, time)
        else:
            bucket.append(entry)
        return entry

    def cancel(self, handle: ScheduleHandle) -> None:
        """Prevent a scheduled call from running (idempotent, stale-safe).

        Cancellation is lazy: the entry stays in its bucket with its
        callback cleared, and the drain skips it.
        """
        handle[0] = None

    def spawn(self, generator: Generator[Waitable, Any, Any], name: str = "") -> Process:
        """Create and start a :class:`Process` around *generator*."""
        process = Process(self, generator, name=name)
        process._start()
        return process

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or the clock passes *until*.

        Returns the final simulated time.  With ``until`` set, the clock is
        advanced exactly to ``until`` even if the last event fired earlier,
        so back-to-back ``run`` calls tile the timeline predictably.
        """
        if self._running:
            raise SimError("kernel is not reentrant")
        self._running = True
        try:
            self._drain(until)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def _drain(self, until: Optional[float]) -> None:
        """The hot drain loop: pop buckets in time order, run their calls.

        A callback scheduling at the *current* time cannot touch the
        active bucket (it was popped from the calendar before draining),
        so it opens a fresh bucket at the same timestamp which the outer
        loop reaches right after, behind every call already scheduled for
        that time.  The clock moves when a call runs, so a bucket of
        cancelled calls leaves ``now`` alone.
        """
        times_heap = self._times_heap
        buckets = self._buckets
        while True:
            bucket = self._active_bucket
            if bucket is None:
                if not times_heap:
                    return
                time = times_heap[0]
                if until is not None and time > until:
                    return
                _heappop(times_heap)
                bucket = buckets.pop(time)
                if time < self.now:
                    raise SimError("time went backwards")
                self._active_bucket = bucket
            for entry in bucket:
                callback = entry[0]
                if callback is None:
                    continue
                entry[0] = None
                self.now = entry[2]
                args = entry[1]
                if args:
                    callback(*args)
                else:
                    callback()
                if self._raised is not None:
                    error, self._raised = self._raised, None
                    raise error
            self._active_bucket = None

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) calls still queued.

        Counts the live entries over the calendar; only tests, the
        ``kernel-events`` bench and ``repr`` read it.
        """
        buckets = list(self._buckets.values())
        if self._active_bucket is not None:
            buckets.append(self._active_bucket)
        return sum(entry[0] is not None for bucket in buckets for entry in bucket)

    def __repr__(self) -> str:
        return f"SimKernel(now={self.now}, pending={self.pending})"
