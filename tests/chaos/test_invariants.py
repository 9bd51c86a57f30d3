"""Invariant monitor tests: unit checks on fakes plus end-to-end runs."""

from repro.chaos.cli import SELF_TEST_ENTRIES, SELF_TEST_HORIZON, SELF_TEST_SABOTAGE
from repro.chaos.invariants import (
    CheckpointMonotonicityMonitor,
    DiverterConservationMonitor,
    HeartbeatLivenessMonitor,
    InvariantMonitor,
    RecoveryLatencyMonitor,
    SplitBrainMonitor,
    default_monitors,
)
from repro.chaos.runner import ChaosRun, run_schedule
from repro.chaos.schedule import ChaosSchedule, FaultEntry
from repro.core.roles import Role
from repro.msq.manager import DEAD_LETTER_QUEUE


# ---------------------------------------------------------------------------
# Duck-typed fakes mirroring the slices of ChaosScenario monitors touch.


class FakeApp:
    def __init__(self, running=True):
        self.running = running


class FakeHeartbeat:
    def __init__(self, suspected=False):
        self.suspected = suspected

    def is_suspected(self, target):
        return self.suspected


class FakeEngine:
    def __init__(self, alive=True, role=Role.PRIMARY, apps=None, suspected=False):
        self.alive = alive
        self.role = role
        self.applications = apps if apps is not None else {"synthetic": FakeApp()}
        self.monitor = FakeHeartbeat(suspected)
        self.on_checkpoint_submit = []
        self.on_checkpoint_stored = []
        self.node_name = "alpha"


class FakePair:
    node_names = ("alpha", "beta")

    def __init__(self, engines):
        self.engines = engines

    def running_app_nodes(self):
        return [
            name
            for name, engine in self.engines.items()
            if any(app.running for app in engine.applications.values())
        ]


class FakeNetwork:
    def __init__(self, connected=True):
        self.connected = connected

    def path_ok(self, source, dest):
        return self.connected


class FakeScenario:
    def __init__(self, engines, connected=True):
        self.pair = FakePair(engines)
        self.network = FakeNetwork(connected)


def dual_primary_scenario(connected=True):
    return FakeScenario(
        {"alpha": FakeEngine(), "beta": FakeEngine()},
        connected=connected,
    )


# ---------------------------------------------------------------------------
# SplitBrainMonitor


def test_split_brain_fires_after_grace():
    monitor = SplitBrainMonitor()
    monitor.grace = 1_000.0
    scenario = dual_primary_scenario()
    for now in (0.0, 500.0, 1_600.0):
        monitor.on_tick(scenario, now)
    assert len(monitor.violations) == 1
    violation = monitor.violations[0]
    assert violation.invariant == "split-brain"
    assert violation.detail["primaries"] == ["alpha", "beta"]


def test_split_brain_tolerates_transient_dual_primary():
    monitor = SplitBrainMonitor()
    monitor.grace = 1_000.0
    scenario = dual_primary_scenario()
    monitor.on_tick(scenario, 0.0)
    monitor.on_tick(scenario, 900.0)
    scenario.pair.engines["beta"].role = Role.BACKUP  # resolved in time
    monitor.on_tick(scenario, 1_800.0)
    assert monitor.violations == []


def test_split_brain_ignores_dual_primary_under_partition():
    monitor = SplitBrainMonitor()
    monitor.grace = 1_000.0
    scenario = dual_primary_scenario(connected=False)
    for now in (0.0, 2_000.0, 10_000.0):
        monitor.on_tick(scenario, now)
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# RecoveryLatencyMonitor


def test_recovery_latency_fires_on_prolonged_outage():
    monitor = RecoveryLatencyMonitor()
    monitor.bound = 1_000.0
    scenario = FakeScenario(
        {
            "alpha": FakeEngine(role=Role.BACKUP),
            "beta": FakeEngine(alive=False, role=Role.SHUTDOWN),
        }
    )
    for now in (0.0, 500.0, 1_000.0, 1_600.0):
        monitor.on_tick(scenario, now)
    assert [v.invariant for v in monitor.violations] == ["recovery-latency"]


def test_recovery_latency_clock_pauses_when_nothing_can_recover():
    monitor = RecoveryLatencyMonitor()
    monitor.bound = 1_000.0
    scenario = FakeScenario(
        {
            "alpha": FakeEngine(alive=False, role=Role.SHUTDOWN),
            "beta": FakeEngine(alive=False, role=Role.SHUTDOWN),
        }
    )
    for now in (0.0, 2_000.0, 50_000.0):
        monitor.on_tick(scenario, now)
    assert monitor.violations == []


def test_recovery_latency_treats_serving_dual_primary_as_available():
    monitor = RecoveryLatencyMonitor()
    monitor.bound = 1_000.0
    scenario = dual_primary_scenario()
    for now in (0.0, 5_000.0, 10_000.0):
        monitor.on_tick(scenario, now)
    assert monitor.violations == []


def test_recovery_latency_requires_running_apps():
    monitor = RecoveryLatencyMonitor()
    monitor.bound = 1_000.0
    scenario = FakeScenario(
        {
            "alpha": FakeEngine(apps={"synthetic": FakeApp(running=False)}),
            "beta": FakeEngine(role=Role.BACKUP),
        }
    )
    for now in (0.0, 800.0, 1_900.0):
        monitor.on_tick(scenario, now)
    assert len(monitor.violations) == 1


# ---------------------------------------------------------------------------
# HeartbeatLivenessMonitor


def test_heartbeat_liveness_fires_on_stuck_suspicion():
    monitor = HeartbeatLivenessMonitor()
    monitor.grace = 1_000.0
    scenario = FakeScenario(
        {"alpha": FakeEngine(suspected=True), "beta": FakeEngine(role=Role.BACKUP)}
    )
    for now in (0.0, 600.0, 1_700.0):
        monitor.on_tick(scenario, now)
    assert [v.invariant for v in monitor.violations] == ["heartbeat-liveness"]
    assert monitor.violations[0].detail["nodes"] == ["alpha"]


def test_heartbeat_liveness_resets_on_disconnect():
    monitor = HeartbeatLivenessMonitor()
    monitor.grace = 1_000.0
    scenario = FakeScenario(
        {"alpha": FakeEngine(suspected=True), "beta": FakeEngine(role=Role.BACKUP)}
    )
    monitor.on_tick(scenario, 0.0)
    scenario.network.connected = False
    monitor.on_tick(scenario, 5_000.0)  # window must restart after this
    scenario.network.connected = True
    monitor.on_tick(scenario, 5_100.0)
    monitor.on_tick(scenario, 5_900.0)
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# CheckpointMonotonicityMonitor


class FakeCheckpoint:
    def __init__(self, app_name, sequence):
        self.app_name = app_name
        self.sequence = sequence


class FakeKernel:
    def __init__(self):
        self.now = 0.0


def hooked_engine(monitor):
    engine = FakeEngine()
    engine.kernel = FakeKernel()
    monitor.on_engine(engine)
    return engine


def test_checkpoint_monotonicity_accepts_increasing_sequences():
    monitor = CheckpointMonotonicityMonitor()
    engine = hooked_engine(monitor)
    for seq in (1, 2, 5):
        for hook in engine.on_checkpoint_submit:
            hook(engine, FakeCheckpoint("synthetic", seq))
        for hook in engine.on_checkpoint_stored:
            hook(engine, FakeCheckpoint("synthetic", seq))
    assert monitor.violations == []


def test_checkpoint_monotonicity_flags_regression():
    monitor = CheckpointMonotonicityMonitor()
    engine = hooked_engine(monitor)
    for seq in (3, 3):
        for hook in engine.on_checkpoint_submit:
            hook(engine, FakeCheckpoint("synthetic", seq))
    assert len(monitor.violations) == 1
    assert monitor.violations[0].detail["kind"] == "submit"
    assert monitor.violations[0].detail["previous"] == 3


def test_checkpoint_monotonicity_tracks_engines_independently():
    monitor = CheckpointMonotonicityMonitor()
    old = hooked_engine(monitor)
    for hook in old.on_checkpoint_submit:
        hook(old, FakeCheckpoint("synthetic", 7))
    reinstalled = hooked_engine(monitor)  # new engine object restarts at 1
    for hook in reinstalled.on_checkpoint_submit:
        hook(reinstalled, FakeCheckpoint("synthetic", 8))
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# DiverterConservationMonitor


class FakeQueueManager:
    def __init__(self, sent, delivered_local=0, acked=0, dead_lettered=0, pending=0):
        self.stats = {
            "sent": sent,
            "delivered_local": delivered_local,
            "acked": acked,
            "dead_lettered": dead_lettered,
        }
        self._pending = pending
        self.queues = {DEAD_LETTER_QUEUE: [None] * dead_lettered}

    def pending_count(self):
        return self._pending


def test_diverter_conservation_balanced():
    monitor = DiverterConservationMonitor()
    scenario = FakeScenario({"alpha": FakeEngine(), "beta": FakeEngine(role=Role.BACKUP)})
    scenario.client_qmgr = FakeQueueManager(sent=10, acked=6, dead_lettered=1, pending=3)
    monitor.on_tick(scenario, 1_000.0)
    monitor.finalize(scenario, 2_000.0)
    assert monitor.violations == []


def test_diverter_conservation_detects_silent_loss():
    monitor = DiverterConservationMonitor()
    scenario = FakeScenario({"alpha": FakeEngine(), "beta": FakeEngine(role=Role.BACKUP)})
    scenario.client_qmgr = FakeQueueManager(sent=10, acked=6, pending=3)  # one vanished
    monitor.on_tick(scenario, 1_000.0)
    assert len(monitor.violations) == 1
    assert monitor.violations[0].detail["imbalance"] == 1


# ---------------------------------------------------------------------------
# End-to-end: real runs through the runner.


def test_clean_run_has_no_violations():
    schedule = ChaosSchedule(
        entries=[
            FaultEntry(2_000.0, "app-crash", {"node": "alpha", "process": "synthetic"}),
            FaultEntry(5_000.0, "gray-node", {"node": "beta", "delay": 100.0}),
            FaultEntry(8_000.0, "gray-node", {"node": "beta", "delay": 0.0}),
        ],
        horizon=18_000.0,
    )
    result = run_schedule(0, schedule)
    assert result.passed, result.violation_names()
    assert result.workload_sent > 0


def test_sabotaged_run_is_caught_by_split_brain_monitor():
    schedule = ChaosSchedule(entries=list(SELF_TEST_ENTRIES), horizon=SELF_TEST_HORIZON)
    result = run_schedule(0, schedule, sabotage_name=SELF_TEST_SABOTAGE)
    assert not result.passed
    assert "split-brain" in result.violation_names()


def test_same_seed_runs_are_wire_identical():
    schedule = ChaosSchedule(
        entries=[
            FaultEntry(2_000.0, "partition", {"side_a": ["alpha"], "side_b": ["beta"]}),
            FaultEntry(6_000.0, "heal-network", {}),
        ],
        horizon=16_000.0,
    )
    first = run_schedule(3, schedule)
    second = run_schedule(3, schedule)
    assert first.as_wire() == second.as_wire()
    assert first.trace_fingerprint == second.trace_fingerprint


class EngineRecorder(InvariantMonitor):
    """Records every engine instance the runner hands to ``on_engine``."""

    name = "engine-recorder"

    def __init__(self):
        super().__init__()
        self.engines = []

    # A recorder lives for one run, so its list is bounded by that run.
    def on_engine(self, engine):
        self.engines.append(engine)  # oftt-lint: ok[unbounded-growth]


def test_runner_hooks_each_engine_instance_once_across_reinstalls():
    schedule = ChaosSchedule(
        entries=[
            FaultEntry(3_000.0, "node-failure", {"node": "alpha"}),
            FaultEntry(5_000.0, "node-reboot", {"node": "alpha"}),
            FaultEntry(10_000.0, "node-failure", {"node": "beta"}),
            FaultEntry(12_000.0, "node-reboot", {"node": "beta"}),
        ],
        horizon=20_000.0,
    )
    first, last = EngineRecorder(), EngineRecorder()
    run = ChaosRun(0, schedule, monitors=[first] + default_monitors() + [last])
    run.execute()
    started = run.scenario.trace.count(category="engine", event="engine-started")
    assert started == 4  # two originals, two reinstalls
    final = run.scenario.pair.engines
    for recorder in (first, last):
        assert len({id(engine) for engine in recorder.engines}) == len(recorder.engines) == started
        for name in ("alpha", "beta"):
            assert any(engine is final[name] for engine in recorder.engines)


# ---------------------------------------------------------------------------
# StrategyFlappingMonitor / RestartThrashMonitor


class FakeSwitchKernel:
    def __init__(self):
        self.now = 0.0


class FakeSwitchEngine:
    def __init__(self):
        self.kernel = FakeSwitchKernel()
        self.node_name = "alpha"
        self.on_strategy_switch = []
        self.local_restart_count = 0

    def switch(self, now, old="cold-passive", new="leader-follower"):
        self.kernel.now = now
        for hook in self.on_strategy_switch:
            hook(self, old, new, "test")


def test_strategy_flapping_fires_past_bound_in_window():
    from repro.chaos.invariants import StrategyFlappingMonitor

    monitor = StrategyFlappingMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    for now in (1_000.0, 2_000.0, 3_000.0):
        engine.switch(now)
    assert monitor.violations == []  # exactly at the bound
    engine.switch(4_000.0)
    assert [v.invariant for v in monitor.violations] == ["strategy-flapping"]
    assert monitor.violations[0].detail["switches"] == 4


def test_strategy_flapping_tolerates_spread_out_switches():
    from repro.chaos.invariants import StrategyFlappingMonitor

    monitor = StrategyFlappingMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    for now in (0.0, 11_000.0, 22_000.0, 33_000.0, 44_000.0):
        engine.switch(now)
    assert monitor.violations == []


def test_strategy_flapping_inert_without_switches():
    from repro.chaos.invariants import StrategyFlappingMonitor

    monitor = StrategyFlappingMonitor()
    monitor.on_engine(FakeSwitchEngine())
    assert monitor.violations == []


def test_restart_thrash_fires_on_rapid_burst():
    from repro.chaos.invariants import RestartThrashMonitor

    monitor = RestartThrashMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    for tick in range(6):
        engine.local_restart_count += 1
        monitor.on_tick(None, 100.0 * (tick + 1))
    assert [v.invariant for v in monitor.violations] == ["restart-thrash"]
    assert monitor.violations[0].detail["restarts"] == 6


def test_restart_thrash_tolerates_governed_pace():
    from repro.chaos.invariants import RestartThrashMonitor

    monitor = RestartThrashMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    for tick in range(10):
        engine.local_restart_count += 1
        monitor.on_tick(None, 1_000.0 * (tick + 1))  # one per second: 4 in any window
    assert monitor.violations == []


def test_restart_thrash_ignores_preexisting_count():
    from repro.chaos.invariants import RestartThrashMonitor

    monitor = RestartThrashMonitor()
    engine = FakeSwitchEngine()
    engine.local_restart_count = 50  # history from before attach
    monitor.on_engine(engine)
    monitor.on_tick(None, 100.0)
    assert monitor.violations == []


def _idle_ticks(monitor, start, end):
    now = start
    while now <= end:
        monitor.on_tick(None, now)
        now += 50.0


def test_restart_thrash_reports_burst_after_idle_ticks():
    from repro.chaos.invariants import RestartThrashMonitor

    monitor = RestartThrashMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    _idle_ticks(monitor, 50.0, 10_000.0)  # 200 restart-free ticks
    engine.local_restart_count += 3
    monitor.on_tick(None, 10_050.0)
    engine.local_restart_count += 3
    monitor.on_tick(None, 10_100.0)
    assert [(v.time, v.detail["restarts"]) for v in monitor.violations] == [(10_100.0, 6)]


def test_restart_thrash_drops_burst_once_it_leaves_the_window():
    from repro.chaos.invariants import RestartThrashMonitor

    monitor = RestartThrashMonitor()
    engine = FakeSwitchEngine()
    monitor.on_engine(engine)
    engine.local_restart_count += 4
    monitor.on_tick(None, 1_000.0)
    _idle_ticks(monitor, 1_050.0, 5_000.0)  # the burst is still inside the window at 5_000
    engine.local_restart_count += 4
    monitor.on_tick(None, 5_050.0)  # the 1_000 burst ages out here: 4 in the window
    assert monitor.violations == []
    engine.local_restart_count += 2
    monitor.on_tick(None, 5_100.0)
    assert [(v.time, v.detail["restarts"]) for v in monitor.violations] == [(5_100.0, 6)]
