"""The discrete-event simulation kernel.

:class:`SimKernel` maintains a priority queue of timestamped events and a
monotonically increasing simulated clock.  Work is expressed either as a
plain scheduled callback (:meth:`SimKernel.schedule`) or as a cooperative
:class:`Process` wrapping a generator that yields
:mod:`repro.simnet.events` waitables.

Determinism: events at equal timestamps run in insertion order (a strictly
increasing sequence number breaks ties), and all randomness flows through
:class:`repro.simnet.random.RngStreams`.  Two runs with the same seed
produce identical traces.

Hot-path notes (``SimKernel.run``/``step``/``schedule``/``cancel`` are hot
roots in ``repro/analysis/hotpath.manifest``): the event queue is a
struct-of-arrays layout, not a heap of per-call handle objects.  Each
scheduled call occupies a *slot* — an index into parallel columns
(``array('d')`` times, ``array('q')`` sequence numbers, plain lists for
the callable and its argument tuple, a ``bytearray`` of cancelled flags)
— and slots are recycled through a free list, so steady-state scheduling
allocates no Python objects beyond the argument tuple the call protocol
builds anyway.

Ordering is delegated to a *calendar* structure instead of a per-event
heap: slots scheduled for the same timestamp share one bucket (a plain
list of slot indices), and a ``heapq`` of the distinct timestamps orders
the buckets.  Two facts make this both fast and exactly equivalent to
the old ``(time, seq, call)`` tuple heap:

* within a bucket, list append order *is* sequence-number order, so the
  bucket itself encodes the equal-timestamp tie-break — no comparisons
  needed at all;
* across buckets, the heap compares raw floats in C, and holds one entry
  per *distinct* timestamp rather than one per event.  Sim workloads are
  heavily collisional (periodic heartbeats, sweeps, retries), so the
  heap shrinks by an order of magnitude; even the all-unique worst case
  just degrades to a float heap, still cheaper than tuple entries.

An earlier struct-of-arrays draft kept a per-event index heap with the
sift loops in Python; it measured ~3x *slower* per comparison than C
tuple compares and was discarded — the calendar layout is what lets the
struct-of-arrays columns win (see PERF.md round 3).
"""

from __future__ import annotations

import heapq
from array import array
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import SimError
from repro.simnet.events import Timeout, Waitable

# Bound once at import so the per-event loops skip the module-attribute
# lookup (HOT006 dogfood; see ANALYSIS.md "Hot-path rules").
_heappush = heapq.heappush
_heappop = heapq.heappop

#: A schedule handle is an opaque int: the low bits address the slot, the
#: high bits carry the call's unique sequence number.  ``cancel`` checks
#: the sequence column before acting, so a handle kept past its call's
#: execution or cancellation can never cancel an unrelated call that
#: reused the slot — the stale-handle no-op the old per-call objects gave
#: for free.
ScheduleHandle = int

_SLOT_BITS = 28
_SLOT_MASK = (1 << _SLOT_BITS) - 1


class Interrupt(Exception):
    """Raised inside a process generator when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


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
        self._pending_interrupt: Optional[Interrupt] = None

    # -- lifecycle -------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the generator at its next step.

        Interrupting a finished process is a no-op, matching the semantics
        of signalling a dead thread.
        """
        if not self.alive:
            return
        self._pending_interrupt = Interrupt(cause)
        # Detach from whatever we were waiting on and resume immediately.
        self._waiting_on = None
        self.kernel.schedule(0.0, self._step, None)

    def kill(self) -> None:
        """Terminate the process without running any more of its body.

        Unlike :meth:`interrupt`, the generator gets no chance to clean up
        via ``except Interrupt`` — this models an OS-level kill.  The
        process fires with value ``None``.  A process may kill itself (a
        thread tearing down its own process): the generator is then
        abandoned at its next yield instead of closed in place.
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
    # _step is re-entered only through the _waiting_on guard.
    def _on_wait_fired(self, waitable: Waitable) -> None:  # oftt-lint: ok[race-write-read,ip-race-write-write]
        if self._waiting_on is waitable:
            self._waiting_on = None
            self._step(waitable.value)

    def _step(self, send_value: Any) -> None:
        if not self.alive:
            return
        if self._waiting_on is not None:
            # A stale scheduled resume (e.g. cancelled interrupt path).
            return
        try:
            if self._pending_interrupt is not None:
                interrupt, self._pending_interrupt = self._pending_interrupt, None
                target = self.generator.throw(interrupt)
            else:
                target = self.generator.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self._fire(stop.value)
            return
        except Interrupt:
            # Generator chose not to handle the interrupt: it dies quietly.
            self.alive = False
            self._fire(None)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via kernel policy
            self.alive = False
            self.error = exc
            self.kernel._on_process_error(self, exc)
            if not self.fired:
                self._fire(None)
            return
        if not self.alive:
            return  # killed itself (or was killed) while executing
        self._wait_on(target)

    def _wait_on(self, target: Waitable) -> None:
        if not isinstance(target, Waitable):
            raise SimError(f"process {self.name} yielded non-waitable {target!r}")
        target._arm(self.kernel)
        self._waiting_on = target
        target.add_callback(self._on_wait_fired)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"Process({self.name}, {state})"


class SimKernel:
    """Event loop and simulated clock.

    Parameters
    ----------
    on_error:
        Policy for uncaught exceptions inside processes: ``"raise"``
        (default; the exception propagates out of :meth:`run`) or
        ``"record"`` (stored on :attr:`process_errors`, simulation
        continues — used by fault-injection campaigns where application
        crashes are the point).
    """

    def __init__(self, on_error: str = "raise") -> None:
        if on_error not in ("raise", "record"):
            raise SimError(f"unknown error policy {on_error!r}")
        self.now: float = 0.0
        self.on_error = on_error
        self.process_errors: List[Tuple[Process, BaseException]] = []
        # Struct-of-arrays slot columns.  A slot is live while its seq
        # column entry is positive, *cancelled* while it is negative
        # (the sign bit doubles as the cancelled flag, saving a separate
        # column), and free once it is zero — so stale handles, whose
        # positive seq can no longer match, are harmless by construction.
        self._slot_times = array("d")
        self._slot_seqs = array("q")
        self._slot_callbacks: List[Optional[Callable[..., None]]] = []
        self._slot_args: List[Optional[Tuple[Any, ...]]] = []
        self._free_slots: List[int] = []
        # Calendar: one bucket (list of slots, in insertion == seq order)
        # per distinct timestamp, ordered by a heap of the raw floats.
        self._buckets: Dict[float, List[int]] = {}
        self._times_heap: List[float] = []
        # The bucket currently being drained (already popped from
        # ``_buckets``) plus the resume cursor, persisted on the kernel so
        # an exception escaping ``run`` leaves the remaining same-tick
        # events intact for the next ``run``/``step``.
        self._active_bucket: Optional[List[int]] = None
        self._active_index = 0
        self._active_time = 0.0
        self._seq = 0
        self._queued = 0
        self._cancelled_count = 0
        self._raised: Optional[BaseException] = None
        self._running = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> ScheduleHandle:
        """Run *callback(*args)* after *delay* simulated time units.

        Returns an opaque :data:`ScheduleHandle` accepted by
        :meth:`cancel`.  Handles stay harmless forever: cancelling an
        already-executed (or already-cancelled) call is a no-op even if
        its slot has been recycled for a newer call.
        """
        if not delay >= 0.0:
            # Also rejects NaN, which would silently corrupt the time heap.
            raise SimError(f"negative delay: {delay}")
        seq = self._seq + 1
        self._seq = seq
        time = self.now + delay
        free_slots = self._free_slots
        if free_slots:
            slot = free_slots.pop()
            self._slot_times[slot] = time
            self._slot_seqs[slot] = seq
            self._slot_callbacks[slot] = callback
            self._slot_args[slot] = args
        else:
            slot = len(self._slot_seqs)
            self._slot_times.append(time)
            self._slot_seqs.append(seq)
            self._slot_callbacks.append(callback)
            self._slot_args.append(args)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [slot]
            _heappush(self._times_heap, time)
        else:
            bucket.append(slot)
        self._queued += 1
        return slot | (seq << _SLOT_BITS)

    def cancel(self, handle: ScheduleHandle) -> None:
        """Prevent a scheduled call from running (idempotent, stale-safe).

        Cancellation is lazy: the slot stays in its bucket and is freed
        when the drain reaches it.  The kernel counts cancelled entries
        so :attr:`pending` stays O(1).
        """
        slot = handle & _SLOT_MASK
        seq = handle >> _SLOT_BITS
        seqs = self._slot_seqs
        if slot >= len(seqs) or seqs[slot] != seq:
            return  # already ran, cancelled, or never ours
        seqs[slot] = -seq
        self._cancelled_count += 1

    def scheduled_time(self, handle: ScheduleHandle) -> Optional[float]:
        """The absolute time a live handle is armed for (None if spent).

        Debug/introspection helper: a handle is *spent* once its call has
        run or been cancelled.
        """
        slot = handle & _SLOT_MASK
        seqs = self._slot_seqs
        if slot >= len(seqs) or seqs[slot] != handle >> _SLOT_BITS:
            return None
        return self._slot_times[slot]

    def spawn(self, generator: Generator[Waitable, Any, Any], name: str = "") -> Process:
        """Create and start a :class:`Process` around *generator*."""
        process = Process(self, generator, name=name)
        process._start()
        return process

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Convenience constructor for a :class:`Timeout` yieldable."""
        return Timeout(delay, value)

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
        """The hot drain loop: pop buckets in time order, fire their slots.

        A callback scheduling at the *current* time cannot touch the
        active bucket (it was popped from the calendar before draining),
        so it opens a fresh bucket at the same timestamp which the outer
        loop reaches right after — preserving strict ``(time, seq)``
        execution order without re-checking the bucket length per event.
        """
        times_heap = self._times_heap
        buckets = self._buckets
        callbacks = self._slot_callbacks
        args_list = self._slot_args
        seqs = self._slot_seqs
        free_extend = self._free_slots.extend
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
                self._active_index = 0
                self._active_time = time
            index = self._active_index
            size = len(bucket)
            active_time = self._active_time
            cancelled_seen = 0
            # The resume cursor, queued/cancelled counts, and the free
            # list are reconciled once per bucket (or on the exception
            # path) instead of once per event; the finally block keeps
            # mid-bucket aborts resumable.  Consumed slots keep their
            # stale callback/args references until reuse — __getstate__
            # prunes them so pickled kernels stay clean.
            try:
                while index < size:
                    slot = bucket[index]
                    index += 1
                    seq = seqs[slot]
                    seqs[slot] = 0
                    if seq < 0:
                        cancelled_seen += 1
                        continue
                    self.now = active_time
                    args = args_list[slot]
                    if args:
                        callbacks[slot](*args)
                    else:
                        callbacks[slot]()
                    if self._raised is not None:
                        error, self._raised = self._raised, None
                        raise error
            finally:
                start = self._active_index
                self._queued -= index - start
                self._cancelled_count -= cancelled_seen
                self._active_index = index
                free_extend(bucket[start:index])
            self._active_bucket = None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        times_heap = self._times_heap
        buckets = self._buckets
        callbacks = self._slot_callbacks
        args_list = self._slot_args
        seqs = self._slot_seqs
        free_append = self._free_slots.append
        while True:
            bucket = self._active_bucket
            if bucket is None:
                if not times_heap:
                    return False
                time = _heappop(times_heap)
                bucket = buckets.pop(time)
                if time < self.now:
                    raise SimError("time went backwards")
                self._active_bucket = bucket
                self._active_index = 0
                self._active_time = time
            index = self._active_index
            size = len(bucket)
            while index < size:
                slot = bucket[index]
                index += 1
                self._active_index = index
                seq = seqs[slot]
                seqs[slot] = 0
                free_append(slot)
                self._queued -= 1
                callback = callbacks[slot]
                args = args_list[slot]
                callbacks[slot] = None
                args_list[slot] = None
                if seq < 0:
                    self._cancelled_count -= 1
                    continue
                self.now = self._active_time
                if index >= size:
                    self._active_bucket = None
                if args:
                    callback(*args)
                else:
                    callback()
                if self._raised is not None:
                    error, self._raised = self._raised, None
                    raise error
                return True
            self._active_bucket = None

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) calls still queued.

        O(1): the kernel counts queued and cancelled slots instead of
        scanning the calendar.
        """
        return self._queued - self._cancelled_count

    # -- error policy ----------------------------------------------------

    def _on_process_error(self, process: Process, error: BaseException) -> None:
        # Post-mortem diagnostic log: grows only on process failures,
        # which either raise immediately or end the run under test.
        self.process_errors.append((process, error))  # oftt-lint: ok[unbounded-growth]
        if self.on_error == "raise":
            self._raised = error

    # -- copy/pickle -----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Prune stale callback/args references from free slots.

        The drain loop leaves consumed slots' references in place (they
        are overwritten on reuse), which is fine in memory but would drag
        dead — possibly unpicklable — callables into a pickle.
        """
        state = dict(self.__dict__)
        seqs = state["_slot_seqs"]
        callbacks = list(state["_slot_callbacks"])
        args_list = list(state["_slot_args"])
        for slot, seq in enumerate(seqs):
            if seq == 0:
                callbacks[slot] = None
                args_list[slot] = None
        state["_slot_callbacks"] = callbacks
        state["_slot_args"] = args_list
        return state

    def __repr__(self) -> str:
        return f"SimKernel(now={self.now}, pending={self.pending})"
