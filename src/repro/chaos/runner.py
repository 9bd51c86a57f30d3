"""Executing one fault schedule against a fresh testbed.

A :class:`ChaosRun` is fully determined by ``(seed, schedule, sabotage)``:
it builds a :class:`~repro.harness.scenario.ChaosScenario` from the seed,
installs the invariant monitor suite, schedules every fault entry, runs
the kernel to the schedule's horizon and returns a :class:`RunResult`
whose wire form is byte-stable — the property both the minimizer (re-run
subsets and compare) and the replay gate (run twice and diff) rely on.

Sabotage hooks deliberately disable one recovery path before the run
starts; they exist so the harness can prove its own monitors fire (the
``--self-test`` CLI mode) and are never active in normal campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantMonitor, Violation, default_monitors
from repro.chaos.schedule import ChaosSchedule
from repro.core.config import OfttConfig
from repro.faults.injector import FaultInjector
from repro.harness.scenario import ChaosScenario

#: Monitor poll period (simulated ms).
TICK_PERIOD = 50.0

#: name -> sabotage(scenario).  Registered by name so reports stay JSON.
SABOTAGES: Dict[str, Callable[[ChaosScenario], None]] = {}


def sabotage(name: str) -> Callable:
    """Decorator registering a named sabotage hook."""

    def register(fn: Callable[[ChaosScenario], None]) -> Callable[[ChaosScenario], None]:
        SABOTAGES[name] = fn
        return fn

    return register


@sabotage("disable-dual-primary-resolution")
def _disable_dual_primary_resolution(scenario: ChaosScenario) -> None:
    """Break the incarnation tie-break: two primaries never reconcile.

    Models the class of bug where the §3.2 dual-primary resolution logic
    is missing or wrong — the exact failure the split-brain monitor
    exists to catch.
    """
    for name in scenario.pair.node_names:
        negotiator = scenario.pair.engines[name].negotiator
        negotiator._resolve_dual_primary = lambda peer_incarnation: None


@sabotage("drop-state-updates")
def _drop_state_updates(scenario: ChaosScenario) -> None:
    """Silently discard every replicated checkpoint/update.

    Models a broken replication stream: checkpoints are still submitted
    locally (hooks fire, stores advance) but nothing reaches the peer —
    the failure :class:`ReplicaFreshnessMonitor` exists to catch under
    the leader-follower strategy.
    """
    for name in scenario.pair.node_names:
        scenario.pair.engines[name].strategy.replicate = lambda checkpoint: None


@sabotage("disable-cooldown")
def _disable_cooldown(scenario: ChaosScenario) -> None:
    """Remove the adaptive policy's restart governor on both engines.

    With the governor off, back-off between local restarts and the
    thrash detector's early escalation are both gone: a persistent
    crash burns restarts at full speed — the failure
    :class:`RestartThrashMonitor` exists to catch.  Only meaningful
    when the run's config enables the adaptive policy (and a recovery
    rule with a local-restart budget worth burning).
    """
    for name in scenario.pair.node_names:
        policy = scenario.pair.engines[name].policy
        if policy is not None:
            policy.governor_enabled = False


@dataclass
class RunResult:
    """Outcome of one schedule execution."""

    seed: int
    schedule: ChaosSchedule
    violations: List[Violation]
    trace_fingerprint: str
    final_time: float
    workload_sent: int
    sabotage: str = ""
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    def violation_names(self) -> List[str]:
        """Sorted unique invariant names that fired."""
        return sorted({violation.invariant for violation in self.violations})

    def as_wire(self) -> Dict[str, Any]:
        """JSON-safe canonical form (stable across identical runs)."""
        return {
            "seed": self.seed,
            "schedule": self.schedule.as_wire(),
            "violations": [violation.as_wire() for violation in self.violations],
            "passed": self.passed,
            "trace_fingerprint": self.trace_fingerprint,
            "final_time": round(self.final_time, 3),
            "workload_sent": self.workload_sent,
            "sabotage": self.sabotage,
            "stats": self.stats,
        }


class ChaosRun:
    """One deterministic schedule execution."""

    def __init__(
        self,
        seed: int,
        schedule: ChaosSchedule,
        monitors: Optional[List[InvariantMonitor]] = None,
        sabotage_name: str = "",
        config: Optional[OfttConfig] = None,
    ) -> None:
        self.seed = seed
        self.schedule = schedule
        self.monitors = monitors if monitors is not None else default_monitors()
        self.sabotage_name = sabotage_name
        self.config = config
        #: The scenario of the last execute() — exposed for replay subjects
        #: that need the TraceLog, not just its fingerprint.
        self.scenario: Optional[ChaosScenario] = None
        #: node -> the engine instance the monitors last saw there.
        self._engines: Dict[str, Any] = {}

    def execute(self) -> RunResult:
        """Build the testbed, play the schedule, collect violations."""
        scenario = ChaosScenario(seed=self.seed, config=self.config)
        self.scenario = scenario
        if self.sabotage_name:
            hook = SABOTAGES.get(self.sabotage_name)
            if hook is None:
                raise ValueError(f"unknown sabotage {self.sabotage_name!r}")
            hook(scenario)
        for monitor in self.monitors:
            monitor.attach(scenario)
        self._scan_engines(scenario)
        injector = FaultInjector(scenario.kernel, scenario)
        for entry in self.schedule.sorted_entries():
            injector.inject_at(entry.at, entry.build())
        scenario.start(settle=True)
        scenario.kernel.schedule(TICK_PERIOD, self._tick)
        scenario.run(until=self.schedule.horizon)
        now = scenario.kernel.now
        for monitor in self.monitors:
            monitor.finalize(scenario, now)
        for monitor in self.monitors:
            monitor.detach()
        violations = sorted(
            (v for monitor in self.monitors for v in monitor.violations),
            key=lambda v: (v.time, v.invariant),
        )
        qstats = dict(scenario.client_qmgr.stats)
        qstats["pending"] = scenario.client_qmgr.pending_count()
        return RunResult(
            seed=self.seed,
            schedule=self.schedule,
            violations=violations,
            trace_fingerprint=scenario.trace.fingerprint(),
            final_time=now,
            workload_sent=scenario.workload_sent,
            sabotage=self.sabotage_name,
            stats={
                "client_msq": qstats,
                "network": {
                    "delivered": scenario.network.delivered_count,
                    "dropped": scenario.network.dropped_count,
                    "corrupted": scenario.network.corrupted_count,
                    "duplicated": scenario.network.duplicated_count,
                },
            },
        )

    def _scan_engines(self, scenario: ChaosScenario) -> None:
        # Node reinstalls create brand-new engine objects; monitors must
        # hook every instance they have not seen yet.  Holding the last
        # engine per node keeps it alive, so identity cannot be recycled.
        engines = scenario.pair.engines
        seen = self._engines
        for name in scenario.pair.node_names:
            engine = engines[name]
            if engine is not seen.get(name):
                seen[name] = engine
                for monitor in self.monitors:
                    monitor.on_engine(engine)

    def _tick(self) -> None:
        """One monitor poll, re-armed every ``TICK_PERIOD`` until the horizon."""
        scenario = self.scenario
        kernel = scenario.kernel
        now = kernel.now
        if now >= self.schedule.horizon:
            return
        self._scan_engines(scenario)
        for monitor in self.monitors:
            monitor.on_tick(scenario, now)
        # No handle to cancel: the first tick at or past the horizon stops
        # the loop, and execute() never runs the kernel beyond it.
        kernel.schedule(TICK_PERIOD, self._tick)  # oftt-lint: ok[leaked-timer]


def run_schedule(
    seed: int,
    schedule: ChaosSchedule,
    sabotage_name: str = "",
    config: Optional[OfttConfig] = None,
) -> RunResult:
    """Convenience wrapper: execute one schedule with fresh monitors."""
    return ChaosRun(seed=seed, schedule=schedule, sabotage_name=sabotage_name, config=config).execute()


def run_schedule_task(task: Tuple[int, ChaosSchedule, str]) -> RunResult:
    """Executor entry point: one ``(seed, schedule, sabotage_name)`` task.

    Module-level (pickled by reference) so campaigns can fan schedules
    out over :func:`repro.perf.executor.parallel_map`; the run is a pure
    function of the task tuple, so worker placement cannot affect it.
    An optional fourth element carries an :class:`OfttConfig` (strategy
    campaigns); three-element tasks keep the default config.
    """
    seed, schedule, sabotage_name = task[0], task[1], task[2]
    config = task[3] if len(task) > 3 else None
    return run_schedule(seed, schedule, sabotage_name=sabotage_name, config=config)
