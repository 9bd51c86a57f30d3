"""Heartbeat-based failure detection.

"[The engine] monitors the status of all software components that are
linked with the fault tolerance interface module on the same node and the
status of the peer node by checking the heartbeat messages from each
monitored component.  If it does not receive the message after the
pre-specified timeout, it considers the component fails and initiates a
recovery provision" (§2.2.1).

:class:`HeartbeatMonitor` is the engine-side half: components (or the
peer engine) register, somebody calls :meth:`beat` on every received
heartbeat, and a periodic sweep declares anything silent past its timeout
failed exactly once (until it beats again).

Sensitivity is tunable via *miss_threshold*: a component is only declared
failed after that many **consecutive** sweeps observe it past its
timeout.  The default of 1 is the paper's behaviour (first sweep past the
timeout fails the component); higher thresholds trade detection latency
for robustness against gray nodes and delivery jitter.  Both knobs are
surfaced through :class:`repro.core.config.OfttConfig`
(``heartbeat_timeout`` / ``heartbeat_miss_threshold``) so detector
sensitivity can be swept by chaos schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.simnet.kernel import SimKernel

# callback(component_name, silence_duration)
FailureCallback = Callable[[str, float], None]


@dataclass
class _Watch:
    """Book-keeping for one monitored component."""

    timeout: float
    last_beat: float
    suspected: bool = False
    beats_received: int = 0
    enabled: bool = True
    #: Consecutive sweeps that found this component past its timeout.
    misses: int = 0
    #: The timeout registered at watch(); ``tune`` scales from this so
    #: repeated tuning never compounds.
    base_timeout: float = 0.0
    #: Per-watch miss threshold override (None = the monitor default).
    miss_tolerance: Optional[int] = None
    #: Largest inter-arrival gap observed, and when it was observed —
    #: the latency-skew signal the adaptive classifier reads.
    last_gap: float = 0.0
    last_gap_at: float = 0.0


class HeartbeatMonitor:
    """Sweeps registered components for heartbeat silence."""

    def __init__(
        self,
        kernel: SimKernel,
        sweep_period: float,
        on_failure: FailureCallback,
        miss_threshold: int = 1,
    ) -> None:
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be at least 1, got {miss_threshold}")
        self.kernel = kernel
        self.sweep_period = sweep_period
        self.on_failure = on_failure
        self.miss_threshold = miss_threshold
        self._watches: Dict[str, _Watch] = {}
        self._running = False
        self._timer = None

    # -- registration -----------------------------------------------------------

    def watch(self, component: str, timeout: float) -> None:
        """Start monitoring *component*; its clock starts now."""
        self._watches[component] = _Watch(
            timeout=timeout, last_beat=self.kernel.now, base_timeout=timeout
        )

    def tune(
        self,
        component: str,
        timeout_scale: Optional[float] = None,
        miss_tolerance: Optional[int] = None,
    ) -> None:
        """Adjust one watch's sensitivity at run time.

        ``timeout_scale`` multiplies the timeout registered at
        :meth:`watch` (scaling from the base, so successive tunes replace
        rather than compound).  ``miss_tolerance`` overrides the
        monitor-wide miss threshold for this watch only.  Passing ``None``
        for either restores the default.  No-op for unknown components.
        """
        watch = self._watches.get(component)
        if watch is None:
            return
        if timeout_scale is None:
            watch.timeout = watch.base_timeout
        else:
            watch.timeout = watch.base_timeout * timeout_scale
        watch.miss_tolerance = miss_tolerance

    def unwatch(self, component: str) -> None:
        """Stop monitoring (idempotent)."""
        self._watches.pop(component, None)

    def clear(self) -> None:
        """Drop every watch (full engine teardown)."""
        self._watches.clear()

    def pause(self, component: str) -> None:
        """Keep the watch but suppress failure detection (e.g. during a
        deliberate restart, so the gap is not reported as a failure)."""
        watch = self._watches.get(component)
        if watch is not None:
            watch.enabled = False

    def resume(self, component: str) -> None:
        """Re-enable detection; the silence clock restarts now."""
        watch = self._watches.get(component)
        if watch is not None:
            watch.enabled = True
            watch.last_beat = self.kernel.now
            watch.suspected = False
            watch.misses = 0

    def watched(self) -> List[str]:
        """Names currently monitored, sorted."""
        return sorted(self._watches)

    # -- beats -------------------------------------------------------------------

    def beat(self, component: str) -> None:
        """Record a heartbeat.  A beat from a suspected component clears
        the suspicion (it will be re-reported if it goes silent again)."""
        watch = self._watches.get(component)
        if watch is None:
            return
        if watch.beats_received > 0:
            gap = self.kernel.now - watch.last_beat
            if gap >= watch.last_gap or watch.last_gap_at < watch.last_beat:
                watch.last_gap = gap
                watch.last_gap_at = self.kernel.now
        watch.last_beat = self.kernel.now
        watch.beats_received += 1
        watch.suspected = False
        watch.misses = 0

    def largest_gap(self, component: str) -> Optional[float]:
        """Largest beat-to-beat gap recently observed (None if unknown).

        ``beat`` keeps the running maximum but lets a smaller gap
        replace a stale one (recorded before the previous beat), so the
        value tracks the *current* delivery regime rather than the
        worst moment of the whole run.
        """
        watch = self._watches.get(component)
        if watch is None or watch.beats_received < 2:
            return None
        return watch.last_gap

    def silence(self, component: str) -> Optional[float]:
        """How long *component* has been silent (None if unknown)."""
        watch = self._watches.get(component)
        if watch is None:
            return None
        return self.kernel.now - watch.last_beat

    def is_suspected(self, component: str) -> bool:
        """Whether the component is currently declared failed."""
        watch = self._watches.get(component)
        return watch.suspected if watch is not None else False

    # -- sweep loop ----------------------------------------------------------------

    def start(self, timer: bool = True) -> None:
        """Begin periodic sweeps.

        With *timer* false the owner runs :meth:`sweep` once a period
        from a timer of its own (the engine's tick) until it hands the
        period back with :meth:`start_timer`.
        """
        if self._running:
            return
        self._running = True
        if timer:
            self.start_timer()

    def start_timer(self) -> None:
        """Sweep on this monitor's own timer, the next sweep one period from now."""
        self._cancel_timer()
        self._timer = self.kernel.schedule(self.sweep_period, self._sweep)

    def stop(self) -> None:
        """Halt sweeps (the engine is shutting down or died)."""
        self._running = False
        self._cancel_timer()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _sweep(self) -> None:
        if not self._running:
            return
        self.sweep()
        self._timer = self.kernel.schedule(self.sweep_period, self._sweep)

    def sweep(self) -> None:
        """One sweep: declare each enabled watch silent past its timeout failed.

        A watch is reported once, after ``miss_threshold`` consecutive
        sweeps (or its own ``miss_tolerance``) found it silent, and not
        again until it beats.
        """
        now = self.kernel.now
        for component, watch in list(self._watches.items()):
            if not watch.enabled or watch.suspected:
                continue
            silence = now - watch.last_beat
            if silence > watch.timeout:
                watch.misses += 1
                threshold = (
                    watch.miss_tolerance
                    if watch.miss_tolerance is not None
                    else self.miss_threshold
                )
                if watch.misses >= threshold:
                    watch.suspected = True
                    self.on_failure(component, silence)
            else:
                watch.misses = 0

    def __repr__(self) -> str:
        return f"HeartbeatMonitor(watching={self.watched()}, running={self._running})"
