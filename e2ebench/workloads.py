"""The four workloads of the end-to-end benchmark and their checks.

Every workload turns a run input (a seed, or a chaos task) into one
freshly built, freshly seeded scenario that runs to completion:
:func:`Workload.simulate` is the part the benchmark times, and
:func:`Workload.check` audits the finished scenario afterwards, untimed.
Everything a check returns is simulated and therefore a pure function of
the run input; host time never enters an :class:`Outcome`.

Why these four (mirrored in ``BENCHMARK.json``):

``demo-failovers``
    The Figure 3 testbed at Table 1 load (5 lines, 10 callers) runs the
    section 4 demonstrations D-a..D-d in sequence through
    :class:`repro.faults.campaign.Campaign`, repairing the failed node
    between them, then drains for 3 s.  Traffic is light, so the
    recovery path does most of the work: engine roles and heartbeats,
    ``nt`` process relaunch, kernel timer churn, and checkpoint restore.
    A checkpoint-capture speed-up should leave it about unchanged.
``calltrack-load``
    The same testbed at 40 lines and 100 callers (idle 2 s, call 1 s)
    for 20 s with a primary power-off at 15 s, then a 3 s drain.  This
    is the steady-state data path (diverter, MSMQ, app, FTIM capture on
    every completed call), where the checkpoint memory walk dominates.
``blackout-f1a``
    Figure 1(a): PLC and fieldbus, OPC server, DCOM, SCADA pair.  20 s
    warm-up, primary power-off, 30 s sampled at 10 ms (the
    ``exp_scada_blackout`` protocol).  The only workload that runs
    ``com``, ``opc`` and the plant ``devices``; it yields the
    operator-facing blackout.
``chaos-mix``
    ``repro.chaos.cli.campaign_tasks`` schedules (default config) from
    the full fault catalogue with the invariant monitors ticking every
    50 ms and one trace fingerprint per run.  The only workload where the
    chaos monitors, the partition, corruption and duplication network
    paths and ``TraceLog.fingerprint`` do real work.  It takes one
    schedule per seed: chaos runs differ widely, and ten schedules per
    seed packed a short invocation's runs into a few seeds, which left
    11% between seeds on ``peak_heap_mb``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.chaos.cli import campaign_tasks
from repro.chaos.invariants import InvariantMonitor, default_monitors
from repro.chaos.runner import ChaosRun
from repro.faults.campaign import Campaign
from repro.faults.faultlib import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure, NodeReboot
from repro.faults.injector import FaultInjector
from repro.harness.scenario import build_demo, build_remote_monitoring
from repro.nt.system import SystemState
from repro.simnet.trace import quantize

#: Run inputs of one ``--seed`` are drawn from ``[seed * SEED_STRIDE, ...)``;
#: the untimed warm-up uses the last value of that block, which no
#: measured run reaches.
SEED_STRIDE = 10_000

#: The ``Campaign.run_fault`` poll step, also the F1a sampling period.
POLL_MS = 10.0
DRAIN_MS = 3_000.0

DEMO_WARMUP_MS = 20_000.0
DEMO_GAP_MS = 10_000.0
DEMO_FAULTS: Tuple[Callable[[str], Any], ...] = (
    NodeFailure,
    BlueScreen,
    lambda node: AppCrash(node, "calltrack"),
    MiddlewareCrash,
)

LOAD_SHAPE = {"lines": 40, "callers": 100, "mean_idle": 2_000.0, "mean_call": 1_000.0}
LOAD_FAULT_AT_MS = 15_000.0
LOAD_END_MS = 20_000.0

F1A_WARMUP_MS = 20_000.0
F1A_AFTER_MS = 30_000.0

#: See the module docstring.
CHAOS_SCHEDULES_PER_SEED = 1


@dataclass
class Run:
    """A finished scenario, as :func:`Workload.simulate` leaves it."""

    scenario: Any
    sim_ms: float
    #: Every engine the run used, reinstalled ones included, so their
    #: public counters survive node repairs.
    engines: List[Any]
    recoveries_ms: List[Optional[float]]
    detail: Any = None


@dataclass
class Outcome:
    """The checked, fully simulated result of one run."""

    passed: bool
    sim_ms: float
    recoveries_ms: List[float]
    blackout_ms: Optional[float] = None
    events_lost: Optional[int] = None
    wire: Dict[str, Any] = field(default_factory=dict)


def _remember_engines(engines: List[Any], pair: Any) -> None:
    for engine in pair.engines.values():
        if not any(engine is seen for seen in engines):
            engines.append(engine)


# -- Call Track (Figure 3) -------------------------------------------------------


def _repair(demo: Any, node: str) -> None:
    """Bring a failed demo node back as backup (the ``exp_failover_demos`` repair)."""
    if demo.systems[node].state in (SystemState.OFF, SystemState.BLUESCREEN):
        FaultInjector(demo.kernel, demo).inject_now(NodeReboot(node, reinstall=True))
    elif not demo.pair.engines[node].alive:
        demo.pair.reinstall_node(node)


def simulate_demo_failovers(seed: int) -> Run:
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(DEMO_WARMUP_MS)
    campaign = Campaign(demo.kernel, demo, poll_step=POLL_MS)
    engines: List[Any] = []
    for make_fault in DEMO_FAULTS:
        primary = demo.pair.primary_node()
        campaign.run_fault(make_fault(primary))
        demo.run_for(DEMO_GAP_MS)
        _remember_engines(engines, demo.pair)
        _repair(demo, primary)
        demo.run_for(DEMO_GAP_MS)
    demo.telephone.stop()
    demo.run_for(DRAIN_MS)
    _remember_engines(engines, demo.pair)
    return Run(demo, demo.kernel.now, engines, [r.recovery_latency for r in campaign.records], campaign)


def simulate_calltrack_load(seed: int) -> Run:
    demo = build_demo(seed=seed, **LOAD_SHAPE)
    demo.start()
    start = demo.kernel.now
    demo.run(until=start + LOAD_FAULT_AT_MS)
    campaign = Campaign(demo.kernel, demo, poll_step=POLL_MS)
    campaign.run_fault(NodeFailure(demo.pair.primary_node()))
    demo.run(until=max(demo.kernel.now, start + LOAD_END_MS))
    demo.telephone.stop()
    demo.run_for(DRAIN_MS)
    engines: List[Any] = []
    _remember_engines(engines, demo.pair)
    return Run(demo, demo.kernel.now, engines, [r.recovery_latency for r in campaign.records], campaign)


def check_calltrack(run: Run) -> Outcome:
    """Every fault recovered, and the audit replay makes the app match ground truth.

    ``history.replay_into`` feeds the whole call history to the surviving
    copy; its dedupe logic drops what the app already holds, so the
    replay count is exactly the number of events the failovers lost, and
    afterwards the busy-line histogram must equal the generator's.
    """
    demo, campaign = run.scenario, run.detail
    app = demo.primary_app()
    recovered = app is not None and campaign.all_recovered()
    lost = demo.history.replay_into(app) if recovered else -1
    exact = recovered and app.histogram() == demo.history.histogram()
    return Outcome(
        passed=exact,
        sim_ms=run.sim_ms,
        recoveries_ms=[ms for ms in run.recoveries_ms if ms is not None],
        events_lost=lost,
        wire={
            "faults": campaign.replay_signature(),
            "events": demo.history.event_count,
            "events_lost": lost,
            "histogram": sorted(demo.history.histogram().items()),
            "end": quantize(run.sim_ms),
        },
    )


# -- Figure 1(a) blackout ----------------------------------------------------------


class _ProgressSampler:
    """Cumulative OPC updates applied by any running SCADA copy (``exp_scada_blackout``)."""

    def __init__(self, scenario: Any) -> None:
        self.scenario = scenario
        self.total = 0
        self.last_seen: Dict[Tuple[str, int], int] = {}
        self.last_progress = scenario.kernel.now
        self.gaps: List[float] = []

    def sample(self) -> None:
        before = self.total
        for node, app in self.scenario.pair.apps.items():
            if app.process is None or not app.process.alive:
                continue
            seen = app.updates_seen()
            key = (node, app.launch_count)
            self.total += max(seen - self.last_seen.get(key, 0), 0)
            self.last_seen[key] = seen
        if self.total > before:
            now = self.scenario.kernel.now
            self.gaps.append(now - self.last_progress)
            self.last_progress = now


def simulate_blackout_f1a(seed: int) -> Run:
    scenario = build_remote_monitoring(seed=seed)
    scenario.start()
    sampler = _ProgressSampler(scenario)
    for _ in range(int(F1A_WARMUP_MS / POLL_MS)):
        scenario.run_for(POLL_MS)
        sampler.sample()
    fault_at = scenario.kernel.now
    NodeFailure(scenario.pair.primary_node()).apply(scenario)
    recovered_at: Optional[float] = None
    for _ in range(int(F1A_AFTER_MS / POLL_MS)):
        scenario.run_for(POLL_MS)
        sampler.sample()
        if recovered_at is None and scenario.pair.is_stable():
            recovered_at = scenario.kernel.now
    engines: List[Any] = []
    _remember_engines(engines, scenario.pair)
    recovery = recovered_at - fault_at if recovered_at is not None else None
    return Run(scenario, scenario.kernel.now, engines, [recovery], sampler)


def check_blackout_f1a(run: Run) -> Outcome:
    """The pair recovered, monitoring resumed and a blackout was measured."""
    scenario, sampler = run.scenario, run.detail
    blackout = max(sampler.gaps) if sampler.gaps else None
    resumed = sampler.total > 0 and scenario.pair.is_stable()
    recoveries = [ms for ms in run.recoveries_ms if ms is not None]
    return Outcome(
        passed=resumed and blackout is not None and len(recoveries) == len(run.recoveries_ms),
        sim_ms=run.sim_ms,
        recoveries_ms=recoveries,
        blackout_ms=blackout,
        wire={
            "updates": sampler.total,
            "blackout": quantize(blackout) if blackout is not None else None,
            "recoveries": [quantize(ms) for ms in recoveries],
            "primary": scenario.pair.primary_node(),
            "end": quantize(run.sim_ms),
        },
    )


# -- chaos campaign ------------------------------------------------------------------


class OutageProbe(InvariantMonitor):
    """Observer riding the chaos monitor tick; it never reports a violation.

    Records every engine the run creates and the length of each outage:
    a stretch of monitor ticks in which ``pair.is_stable()`` is false,
    measured from its first unstable tick to the next stable one.
    """

    name = "bench-outage-probe"

    def __init__(self) -> None:
        super().__init__()
        self.engines: List[Any] = []
        self.outages_ms: List[float] = []
        self._down_since: Optional[float] = None

    # A probe lives for one run, so its lists are bounded by that run.
    def on_engine(self, engine: Any) -> None:
        self.engines.append(engine)  # oftt-lint: ok[unbounded-growth]

    def on_tick(self, scenario: Any, now: float) -> None:
        if scenario.pair.is_stable():
            if self._down_since is not None:
                self.outages_ms.append(now - self._down_since)  # oftt-lint: ok[unbounded-growth]
                self._down_since = None
        elif self._down_since is None:
            self._down_since = now


#: The longest a rebooting chaos node stays BOOTING: ``NTSystem``'s
#: default ``boot_time`` plus ``boot_jitter``.
MAX_BOOT_MS = 350.0


def interrupts_a_rejoin(schedule: Any) -> bool:
    """Whether a power-off lands mid-boot after a node-reboot and another reboot of that node follows.

    ``NodeReboot`` arms a one-shot rejoin hook that runs when the boot
    completes.  A power-off during the boot leaves it armed, the next
    reboot arms a second one, and at the next boot the second reinstall
    raises ``NTError('process oftt-engine already running')``.  About one
    generated schedule in 4,000 has this shape; it is a fault-library
    bug, not a chaos finding, so such schedules are left out of the
    workload.
    """
    entries = schedule.sorted_entries()
    for index, reboot in enumerate(entries):
        if reboot.kind != "node-reboot":
            continue
        node = reboot.params["node"]
        later = entries[index + 1:]
        for position, entry in enumerate(later):
            if (
                entry.kind == "node-failure"
                and entry.params["node"] == node
                and entry.at - reboot.at <= MAX_BOOT_MS
                and any(e.kind == "node-reboot" and e.params["node"] == node for e in later[position + 1:])
            ):
                return True
    return False


def chaos_inputs(base: int) -> Iterator[Tuple[int, Any, str]]:
    """``campaign_tasks(n, CHAOS_SCHEDULES_PER_SEED, base)`` in its canonical
    order, for any *n*, without the schedules :func:`interrupts_a_rejoin` flags."""
    for offset in count():
        for task in campaign_tasks(1, CHAOS_SCHEDULES_PER_SEED, base + offset):
            if not interrupts_a_rejoin(task[1]):
                yield task


def simulate_chaos_mix(task: Tuple[int, Any, str]) -> Run:
    seed, schedule, sabotage_name = task
    probe = OutageProbe()
    chaos = ChaosRun(seed, schedule, monitors=default_monitors() + [probe], sabotage_name=sabotage_name)
    result = chaos.execute()
    return Run(chaos.scenario, result.final_time, probe.engines, list(probe.outages_ms), result)


def check_chaos_mix(run: Run) -> Outcome:
    """Every invariant monitor held (``RunResult.passed``)."""
    result = run.detail
    return Outcome(
        passed=result.passed,
        sim_ms=run.sim_ms,
        recoveries_ms=list(run.recoveries_ms),
        wire={"result": result.as_wire(), "outages": [quantize(ms) for ms in run.recoveries_ms]},
    )


# -- the catalogue ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its run inputs, the timed run and the check."""

    name: str
    why: str
    simulate: Callable[[Any], Run]
    check: Callable[[Run], Outcome]
    inputs_from: Callable[[int], Iterator[Any]]
    #: Runs every invocation completes, however slow the host: simulated
    #: outcomes and the work digest are taken over exactly these first
    #: runs, so they depend on the seed alone.
    fixed_runs: int
    #: The same guarantee for the traced pass, whose counts are taken
    #: over exactly this many runs.
    trace_runs: int

    def inputs(self, seed: int) -> Iterator[Any]:
        """The measured run inputs of *seed*, in order."""
        return self.inputs_from(seed * SEED_STRIDE)

    def warmup_input(self, seed: int) -> Any:
        """One input outside :meth:`inputs` (same shape), for untimed warm-up."""
        return next(self.inputs_from((seed + 1) * SEED_STRIDE - 1))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "demo-failovers",
            "Figure 3 testbed at Table 1 load through demos D-a..D-d: the recovery and restore path",
            simulate_demo_failovers,
            check_calltrack,
            count,
            fixed_runs=40,
            trace_runs=20,
        ),
        Workload(
            "calltrack-load",
            "Call Track at 40 lines/100 callers with a primary power-off: the diverter, MSMQ and capture path",
            simulate_calltrack_load,
            check_calltrack,
            count,
            fixed_runs=20,
            trace_runs=10,
        ),
        Workload(
            "blackout-f1a",
            "Figure 1(a) SCADA over DCOM/OPC through a station failover: the only com/opc/devices run",
            simulate_blackout_f1a,
            check_blackout_f1a,
            count,
            fixed_runs=20,
            trace_runs=10,
        ),
        Workload(
            "chaos-mix",
            "random fault schedules under the invariant monitors: chaos, network fault paths, fingerprints",
            simulate_chaos_mix,
            check_chaos_mix,
            chaos_inputs,
            fixed_runs=50,
            trace_runs=30,
        ),
    )
}


def work_digest(outcomes: List[Outcome]) -> str:
    """sha256 over the canonical outcomes, in run order (not a metric)."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(json.dumps(outcome.wire, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def counts(run: Run) -> Dict[str, float]:
    """Deterministic per-layer counts read from the finished run's public state."""
    scenario = run.scenario
    qmgrs = [engine.context.qmgr for engine in run.engines]
    client = getattr(scenario, "test_qmgr", None) or getattr(scenario, "client_qmgr", None)
    if client is not None:
        qmgrs.append(client)
    sizes = [size for engine in run.engines for size in engine.checkpoint_sizes]
    diverter = getattr(scenario, "diverter_client", None)
    opc_server = getattr(scenario, "opc_server", None)
    return {
        "simnet.network.delivered": scenario.network.delivered_count,
        "simnet.network.dropped": scenario.network.dropped_count,
        "simnet.trace.records": len(scenario.trace),
        "msq.sent": sum(qmgr.stats["sent"] for qmgr in qmgrs),
        "msq.retries": sum(qmgr.stats["retries"] for qmgr in qmgrs),
        "core.ftim.checkpoints": len(sizes),
        "core.ftim.bytes_mean": statistics.fmean(sizes) if sizes else 0.0,
        "core.diverter.redirected": diverter.redirect_count if diverter is not None else 0,
        "opc.updates": opc_server.update_count if opc_server is not None else 0,
    }
