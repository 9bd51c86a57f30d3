"""Experiment runners — one per entry of the DESIGN.md experiment index.

Every function is deterministic for a given seed and returns plain data
(dicts/lists) that ``run_experiments`` prints via
:mod:`~repro.harness.reporting` and that EXPERIMENTS.md records.

Experiment ids:

========  ====================================================
F1a/F1b   reference configurations carry live plant data
F2        the Figure 2 architecture is fully wired
F3/T1     the demo testbed matches Table 1
D-a..D-d  the four §4 failure demonstrations, measured
X1        checkpoint cost: full vs selective vs incremental
X2        detection latency vs heartbeat period/timeout
X3        startup retries vs the original shutdown logic
X4        diverter vs naive sender: message loss on switchover
X5        recovery rules: local restart vs failover
X6        DCOM RPC failure behaviour vs OFTT detection
X7        API transparency levels: overhead vs staleness
A1        ablation: single vs dual Ethernet under NIC failure
A2        ablation: heartbeat timeout vs false takeovers
A3        ablation: checkpoint period vs traffic vs staleness
A4        availability over a 12-fault mixed campaign
BL        monitoring blackout across a station power-off
S1        detector sensitivity: miss threshold x timeout
S2        replication strategies under primary and pair loss
S3        adaptive recovery policy vs static rules
========  ====================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.apps.synthetic import SyntheticStateApp
from repro.chaos.cli import campaign_tasks
from repro.chaos.runner import ChaosRun
from repro.chaos.schedule import (
    DRIFT_DESTRUCTIVE_KINDS,
    DRIFT_PROFILES,
    ChaosSchedule,
    FaultEntry,
    drift_schedule,
)
from repro.core.config import (
    REPLICATION_STRATEGIES,
    GiveUpPolicy,
    OfttConfig,
    RecoveryRule,
    replace_config,
)
from repro.core.roles import Role
from repro.faults.campaign import Campaign
from repro.faults.faultlib import AppHang, TransientAppCrash
from repro.faults.injector import FaultInjector
from repro.harness.scenario import (
    DEMO_FAULTS,
    DEMO_NODES,
    ChaosScenario,
    DemoScenario,
    Scenario,
    build_demo,
    build_integrated,
    build_pair_env,
    build_remote_monitoring,
)
from repro.metrics import failover_timing, summarize


# ---------------------------------------------------------------------------
# F1a / F1b — reference configurations
# ---------------------------------------------------------------------------

def exp_reference_configs(seed: int) -> List[Dict[str, Any]]:
    """Both Figure 1 configurations: data flows, and failover preserves it."""
    rows: List[Dict[str, Any]] = []

    remote = build_remote_monitoring(seed=seed)
    remote.start()
    remote.run_for(20_000.0)
    app = remote.primary_app()
    updates_before = app.updates_seen()
    primary_before = remote.pair.primary_node()
    remote.systems[primary_before].power_off()
    remote.run_for(15_000.0)
    after = remote.primary_app()
    rows.append(
        {
            "config": "F1a remote-monitoring",
            "primary_before": primary_before,
            "primary_after": remote.pair.primary_node(),
            "updates_before": updates_before,
            "updates_after_failover": after.updates_seen() if after else 0,
            "survived": after is not None and after.updates_seen() > 0,
        }
    )

    integrated = build_integrated(seed=seed)
    integrated.start()
    integrated.run_for(20_000.0)
    primary_before = integrated.pair.primary_node()
    _server, client = integrated.pair.all_apps[primary_before]
    updates_before = client.updates_seen()
    integrated.systems[primary_before].power_off()
    integrated.run_for(15_000.0)
    primary_after = integrated.pair.primary_node()
    client_after = integrated.pair.all_apps[primary_after][1] if primary_after else None
    rows.append(
        {
            "config": "F1b integrated",
            "primary_before": primary_before,
            "primary_after": primary_after,
            "updates_before": updates_before,
            "updates_after_failover": client_after.updates_seen() if client_after else 0,
            "survived": client_after is not None and client_after.updates_seen() > 0,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# F2 — the Figure 2 architecture inventory
# ---------------------------------------------------------------------------

def exp_architecture(seed: int) -> Dict[str, Any]:
    """Verify every Figure 2 component exists and exchanges data."""
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(15_000.0)
    primary = demo.pair.primary_node()
    backup = demo.pair.backup_node()
    primary_engine = demo.pair.engines[primary]
    backup_engine = demo.pair.engines[backup]
    app = demo.pair.apps[primary]
    return {
        "primary": primary,
        "backup": backup,
        "engine_processes_alive": primary_engine.alive and backup_engine.alive,
        "ftim_linked": app.api is not None and app.api.ftim is not None,
        "ftim_heartbeats": app.api.ftim.heartbeats_sent,
        "checkpoints_sent": len(primary_engine.checkpoint_sizes),
        "checkpoints_mirrored": backup_engine.checkpoints_received,
        "checkpoint_acked_seq": primary_engine.acked_sequence,
        "diverter_messages": demo.diverter_client.sent_count,
        "monitor_reports": demo.monitor.reports_received,
        "monitor_sees_primary": demo.monitor.current_primary() == primary,
        "app_running_on_backup": demo.pair.apps[backup].running,  # must be False
    }


# ---------------------------------------------------------------------------
# F3 / T1 — the demonstration configuration
# ---------------------------------------------------------------------------

def exp_demo_config(seed: int) -> List[Dict[str, Any]]:
    """Regenerate Table 1: software elements per node, verified live."""
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(10_000.0)
    primary = demo.pair.primary_node()
    rows = []
    for node in DEMO_NODES:
        engine = demo.pair.engines[node]
        app = demo.pair.apps[node]
        rows.append(
            {
                "node": node,
                "role": engine.role.value,
                "software": "OFTT Engine + Call Track application (linked to OFTT Client FTIM)",
                "engine_alive": engine.alive,
                "app_running": app.running,
                "expected_app_running": node == primary,
            }
        )
    rows.append(
        {
            "node": "test-pc",
            "role": "test-and-interface",
            "software": "OFTT System Monitor + Telephone System Simulator + Calling History generator",
            "engine_alive": False,
            "app_running": demo.telephone.running,
            "expected_app_running": True,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# D-a .. D-d — the four failure demonstrations
# ---------------------------------------------------------------------------

def exp_failover_demos(seed: int) -> List[Dict[str, Any]]:
    """Run demos (a)-(d) sequentially on one testbed, measuring each.

    After each failover the failed node is rebooted and rejoins as
    backup, so every demo starts from a healthy pair — mirroring how the
    original demonstration would be reset between cases.  Each demo is
    followed by 10 s of service before the repair and 10 s after it.
    """
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(20_000.0)
    campaign = Campaign(demo.kernel, demo, settle_timeout=30_000.0)
    rows: List[Dict[str, Any]] = []
    for make_fault in DEMO_FAULTS:
        primary = demo.pair.primary_node()
        app_before = demo.primary_app()
        processed_before = app_before.events_processed() if app_before else 0
        fault_time = demo.kernel.now
        record = campaign.run_fault(make_fault(primary))
        surviving = demo.pair.primary_node()
        timing = failover_timing(demo.trace, fault_time, surviving) if surviving else None
        demo.run_for(10_000.0)
        app_after = demo.primary_app()
        rows.append(
            {
                "demo": record.demo_id,
                "fault": record.fault,
                "continued_operation": record.recovered,
                "switched_over": record.switched_over,
                "recovery_ms": record.recovery_latency,
                "detection_ms": timing.detection_latency if timing else None,
                "events_before_fault": processed_before,
                "events_generated_total": demo.history.event_count,
                "events_processed_after": app_after.events_processed() if app_after else 0,
                "events_lost": (demo.history.event_count - app_after.events_processed()) if app_after else None,
            }
        )
        campaign.repair(primary)
        demo.run_for(10_000.0)
    return rows


# ---------------------------------------------------------------------------
# X1 — checkpoint cost
# ---------------------------------------------------------------------------

def exp_checkpoint_cost(seed: int) -> List[Dict[str, Any]]:
    """X1: bytes per checkpoint for full/selective/incremental capture."""
    rows: List[Dict[str, Any]] = []
    for cold_kb in (16, 64, 256):
        for mode in ("full", "selective", "incremental"):
            scenario = build_pair_env(
                seed,
                OfttConfig(),
                lambda m=mode, c=cold_kb: SyntheticStateApp(cold_kb=c, mode=m),
            )
            scenario.start()
            scenario.run_for(20_000.0)
            primary = scenario.pair.primary_node()
            engine = scenario.pair.engines[primary]
            app = scenario.pair.apps[primary]
            # Measure what actually crossed the wire (pre-merge sizes, so
            # incremental deltas report their real transfer cost).
            sizes = engine.checkpoint_sizes
            rows.append(
                {
                    "cold_kb": cold_kb,
                    "mode": mode,
                    "checkpoints": app.api.ftim.checkpoints_taken,
                    "mean_bytes": sum(sizes) / len(sizes) if sizes else 0,
                    "acked_seq": engine.acked_sequence,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# X2 — detection latency vs heartbeat settings
# ---------------------------------------------------------------------------

def exp_detection_latency(seed: int) -> List[Dict[str, Any]]:
    """X2: how fast a hang is detected for each (period, timeout) pair.

    Uses an application *hang* so only the heartbeat path (not the exit
    hook) can detect it.
    """
    rows: List[Dict[str, Any]] = []
    for period, timeout in ((50.0, 200.0), (100.0, 500.0), (250.0, 1_000.0), (500.0, 2_000.0)):
        config = replace_config(OfttConfig(), heartbeat_period=period, heartbeat_timeout=timeout)
        scenario = build_pair_env(seed, config, lambda: SyntheticStateApp(cold_kb=4, mode="selective"))
        scenario.start()
        scenario.run_for(10_000.0)
        primary = scenario.pair.primary_node()
        fault_time = scenario.kernel.now
        FaultInjector(scenario.kernel, scenario).inject_now(AppHang(primary, "synthetic"))
        # Run until the engine notices.
        detected = None
        deadline = fault_time + timeout * 4 + 5_000.0
        while scenario.kernel.now < deadline:
            scenario.run_for(10.0)
            record = scenario.trace.first(
                category="engine", component=primary, event="heartbeat-timeout", since=fault_time
            )
            if record is not None:
                detected = record.time
                break
        rows.append(
            {
                "heartbeat_period_ms": period,
                "timeout_ms": timeout,
                "detection_ms": (detected - fault_time) if detected is not None else None,
                "detected": detected is not None,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# X3 — startup non-determinism vs retry logic
# ---------------------------------------------------------------------------

def exp_startup(seeds: List[int]) -> List[Dict[str, Any]]:
    """X3: rate of false shutdowns with the original vs the retry logic.

    Reproduces §3.2: nodes boot with large random skew; under the
    original logic (no retries, give-up = SHUTDOWN) "the first node that
    starts up would frequently shut down"; retries fix it.  Each node
    boots in 100 ms plus up to 1.5 s of skew and negotiates for 300 ms
    per attempt.
    """
    rows: List[Dict[str, Any]] = []
    for retries in (0, 1, 3, 5):
        shutdowns = 0
        stable = 0
        for seed in seeds:
            config = replace_config(
                OfttConfig(),
                startup_wait=300.0,
                startup_retries=retries,
                give_up_policy=GiveUpPolicy.SHUTDOWN,
            )
            outcome = _run_startup_once(seed, config)
            if outcome == "shutdown":
                shutdowns += 1
            elif outcome == "stable":
                stable += 1
        rows.append(
            {
                "retries": retries,
                "runs": len(seeds),
                "false_shutdowns": shutdowns,
                "stable_pairs": stable,
                "shutdown_rate": shutdowns / len(seeds),
            }
        )
    return rows


def _run_startup_once(seed: int, config: OfttConfig) -> str:
    world = Scenario(seed, dual_lan=False, config=config)
    for name in ("alpha", "beta"):
        system = world.add_machine(name, boot=False)
        system.boot_time = 100.0
        system.boot_jitter = 1_500.0
    # Each engine starts as soon as its machine finishes its (skewed)
    # boot — the §3.2 situation: the early node negotiates against silence.
    pair = world.add_pair(("alpha", "beta"), lambda: SyntheticStateApp(cold_kb=1, mode="selective"), unit="startup")
    for system in world.systems.values():
        system.boot()

    world.run(60_000.0)
    roles = [engine.role for engine in pair.engines.values()]
    if Role.SHUTDOWN in roles:
        return "shutdown"
    if sorted(role.value for role in roles) == ["backup", "primary"]:
        return "stable"
    return "other:" + ",".join(sorted(role.value for role in roles))


# ---------------------------------------------------------------------------
# X4 — diverter vs naive sender
# ---------------------------------------------------------------------------

def exp_diverter(seeds: List[int]) -> List[Dict[str, Any]]:
    """X4: events lost across a switchover, with and without the diverter.

    The diverter run uses the full MSMQ store-and-forward + redirect
    machinery.  The naive run sends raw datagrams straight at the node it
    last believed was primary — what an application without the Message
    Diverter would do — and only re-learns the primary when the engines'
    role-change notice arrives.  A busy telephone system (800 ms mean
    idle, 600 ms mean call) keeps events flowing through the switchover
    window.
    """
    rows: List[Dict[str, Any]] = []
    for variant in ("diverter", "naive"):
        generated = processed = duplicates = 0
        for seed in seeds:
            demo = build_demo(seed=seed, mean_idle=800.0, mean_call=600.0)
            if variant == "naive":
                _make_naive_sender(demo)
            demo.start()
            demo.run_for(15_000.0)
            primary = demo.pair.primary_node()
            demo.systems[primary].power_off()
            demo.run_for(20_000.0)
            app = demo.primary_app()
            generated += demo.history.event_count
            processed += app.events_processed() if app else 0
            duplicates += app.process.address_space.read("duplicates_dropped") if app else 0
        rows.append(
            {
                "variant": variant,
                "runs": len(seeds),
                "events_generated": generated,
                "events_processed": processed,
                "events_lost": generated - processed,
                "loss_rate": (generated - processed) / generated if generated else 0.0,
                "duplicates_dropped": duplicates,
            }
        )
    return rows


def _make_naive_sender(demo: DemoScenario) -> None:
    """Replace the diverter path with fire-and-forget datagrams."""
    from repro.core.diverter import inbox_queue_name

    demo.telephone.listeners.remove(demo.forward_listener)
    state = {"primary": None}
    demo.diverter_client.on_primary_change(lambda node: state.update(primary=node))
    queue_name = inbox_queue_name("calltrack")

    def naive_send(event) -> None:
        target = state["primary"]
        if target is None:
            return  # dropped: no believed primary
        # One unreliable datagram straight into the node-local queue port;
        # anything in flight to a dead node is simply gone.
        demo.test_qmgr.network.send(
            demo.test_qmgr.node.name,
            target,
            "msq.transport",
            {
                "kind": "deliver",
                "queue": queue_name,
                "message": {
                    "message_id": f"naive-{event.sequence}",
                    "sender": demo.test_qmgr.node.name,
                    "body": event.as_wire(),
                    "persistent": False,
                    "sent_at": demo.kernel.now,
                    "label": event.kind,
                },
            },
        )

    demo.telephone.add_listener(naive_send)


# ---------------------------------------------------------------------------
# X5 — recovery rules
# ---------------------------------------------------------------------------

def exp_recovery_rules(seed: int) -> List[Dict[str, Any]]:
    """X5: local restart vs failover for transient application faults."""
    rows: List[Dict[str, Any]] = []
    for rule_name, rule in (
        ("local-restart(2)", RecoveryRule(max_local_restarts=2, restart_delay=100.0)),
        ("always-failover", RecoveryRule.always_failover()),
    ):
        config = OfttConfig().with_rule("synthetic", rule)
        scenario = build_pair_env(seed, config, lambda: SyntheticStateApp(cold_kb=8, mode="selective"))
        scenario.start()
        scenario.run_for(15_000.0)
        primary_before = scenario.pair.primary_node()
        fault_time = scenario.kernel.now
        campaign = Campaign(scenario.kernel, scenario, settle_timeout=20_000.0)
        record = campaign.run_fault(TransientAppCrash(primary_before, "synthetic"))
        rows.append(
            {
                "rule": rule_name,
                "recovered": record.recovered,
                "recovery_ms": record.recovery_latency,
                "switched_over": record.switched_over,
                "local_restarts": scenario.pair.engines[primary_before].local_restart_count,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# X6 — DCOM failure behaviour
# ---------------------------------------------------------------------------

def exp_dcom(seed: int) -> Dict[str, Any]:
    """X6: time for a client to learn its server died, three ways.

    1. Raw DCOM call against a dead *node*: silence until the RPC timeout.
    2. Raw DCOM call against a dead *process* (node alive): fast
       RPC_E_DISCONNECTED.
    3. OFTT heartbeat detection of the same node death: the engine knows
       within its (much shorter) heartbeat timeout.
    """
    from repro.com.dcom import RPC_TIMEOUT
    from repro.com.interfaces import declare_interface
    from repro.com.object import ComObject
    from repro.com.runtime import ComRuntime

    IPING = declare_interface("IPing", ("Ping",))

    class Ping(ComObject):
        IMPLEMENTS = (IPING,)

        def Ping(self) -> str:
            return "pong"

    config = OfttConfig()
    scenario = build_pair_env(seed, config, lambda: SyntheticStateApp(cold_kb=1, mode="selective"))
    scenario.start()
    scenario.run_for(5_000.0)
    primary = scenario.pair.primary_node()
    backup = scenario.pair.backup_node()
    primary_ctx = scenario.pair.contexts[primary]
    backup_ctx = scenario.pair.contexts[backup]

    # Export a ping server on the primary, tied to a host process.
    host = primary_ctx.system.create_process("ping-host")
    host.create_thread("svc", dynamic=False)
    host.start()
    ping_ref = primary_ctx.runtime.export(Ping(), label="ping", process=host)
    proxy = backup_ctx.runtime.proxy_for(ping_ref)

    results: Dict[str, Any] = {}

    # Case 2 first (process death, node alive): kill the host process.
    start = scenario.kernel.now
    host.kill()
    outcome = {}

    def call_dead_process():
        result = yield proxy.Ping()
        outcome["process"] = (scenario.kernel.now - start, result)

    scenario.kernel.spawn(call_dead_process())
    scenario.run_for(5_000.0)
    elapsed, rpc_result = outcome["process"]
    results["dead_process_latency_ms"] = elapsed
    results["dead_process_error"] = rpc_result.detail or hex(rpc_result.hresult)

    # Case 1 + 3: kill the node; time the raw RPC and the OFTT detection.
    fault_time = scenario.kernel.now
    scenario.systems[primary].power_off()
    outcome2 = {}

    def call_dead_node():
        result = yield proxy.Ping()
        outcome2["node"] = (scenario.kernel.now - fault_time, result)

    scenario.kernel.spawn(call_dead_node())
    scenario.run_for(10_000.0)
    elapsed2, rpc_result2 = outcome2["node"]
    timing = failover_timing(scenario.trace, fault_time, backup)
    results["dead_node_rpc_latency_ms"] = elapsed2
    results["dead_node_rpc_error"] = rpc_result2.detail or hex(rpc_result2.hresult)
    results["oftt_detection_latency_ms"] = timing.detection_latency
    results["oftt_failover_latency_ms"] = timing.failover_latency
    results["rpc_timeout_config_ms"] = RPC_TIMEOUT
    results["heartbeat_timeout_config_ms"] = config.peer_heartbeat_timeout
    return results


# ---------------------------------------------------------------------------
# X7 — API transparency levels
# ---------------------------------------------------------------------------

def exp_api_levels(seed: int) -> List[Dict[str, Any]]:
    """X7: integration level vs checkpoint bytes and failover staleness.

    Levels: (1) init-only full periodic checkpoints, (2) +OFTTSelSave
    selective, (3) selective + event-based OFTTSave on every completed
    call (the Call Track configuration).
    """
    rows: List[Dict[str, Any]] = []
    variants = [
        ("L1 init-only", {"save_on_end": False, "selective": False}),
        ("L2 selective", {"save_on_end": False, "selective": True}),
        ("L3 event-based", {"save_on_end": True, "selective": True}),
    ]
    for label, options in variants:
        demo = build_demo(seed=seed, save_on_end=options["save_on_end"])
        if not options["selective"]:
            # Undo the app's OFTTSelSave: monkey-patch via clear at launch.
            _force_full_checkpoints(demo)
        demo.start()
        demo.run_for(30_000.0)
        primary = demo.pair.primary_node()
        engine = demo.pair.engines[primary]
        checkpoints = engine.local_store.all_for("calltrack")
        sizes = [cp.size_bytes() for cp in checkpoints]
        app = demo.primary_app()
        processed_before = app.events_processed()
        demo.systems[primary].power_off()
        demo.run_for(15_000.0)
        app_after = demo.primary_app()
        generated = demo.history.event_count
        rows.append(
            {
                "level": label,
                "checkpoints_taken": app.api.ftim.checkpoints_taken,
                "mean_checkpoint_bytes": sum(sizes) / len(sizes) if sizes else 0,
                "events_generated": generated,
                "events_after_failover": app_after.events_processed() if app_after else 0,
                "events_lost": generated - (app_after.events_processed() if app_after else 0),
            }
        )
    return rows


def _force_full_checkpoints(demo: DemoScenario) -> None:
    """Make every CallTrack copy skip its OFTTSelSave designation."""
    for node in DEMO_NODES:
        app = demo.pair.apps[node]
        original_launch = app.launch

        def launch(image, _app=app, _orig=original_launch):
            process = _orig(image)
            _app.api.ftim.clear_selection()
            return process

        app.launch = launch


# ---------------------------------------------------------------------------
# Ablations — design choices DESIGN.md calls out
# ---------------------------------------------------------------------------

def exp_ablation_dual_lan(seed: int) -> List[Dict[str, Any]]:
    """Dual vs single Ethernet (§2.1): NIC failure on the pair's link.

    With a redundant segment, heartbeats reroute and nothing happens.
    With a single segment, both sides lose the peer: the backup promotes
    while the primary keeps running — a split brain that persists until
    the link heals and the incarnation rule demotes one side.  The NIC
    stays down for 10 s.
    """
    rows: List[Dict[str, Any]] = []
    for lans in (1, 2):
        scenario = build_pair_env(
            seed, OfttConfig(), lambda: SyntheticStateApp(cold_kb=2, mode="selective"), dual_lan=lans > 1
        )
        scenario.start()
        scenario.run_for(5_000.0)
        primary = scenario.pair.primary_node()
        # Cut the primary's NIC on lan0 only.
        scenario.network.nodes[primary].nic_down("lan0")
        dual_primary_window = 0.0
        step = 50.0
        elapsed = 0.0
        while elapsed < 10_000.0:
            scenario.run_for(step)
            elapsed += step
            roles = [
                scenario.pair.engines[name].role.value
                for name in scenario.pair.node_names
                if scenario.pair.engines[name].alive
            ]
            if roles.count("primary") > 1:
                dual_primary_window += step
        # Heal and let the pair resolve.
        scenario.network.nodes[primary].nic_up("lan0")
        scenario.run_for(10_000.0)
        resolved = scenario.pair.is_stable()
        rows.append(
            {
                "ethernet_segments": lans,
                "false_failover": scenario.pair.engines[
                    [n for n in scenario.pair.node_names if n != primary][0]
                ].switchover_count > 0
                or scenario.pair.primary_node() != primary
                if lans == 2
                else None,
                "dual_primary_window_ms": dual_primary_window,
                "resolved_after_heal": resolved,
            }
        )
    return rows


def exp_ablation_heartbeat_loss(seed: int) -> List[Dict[str, Any]]:
    """Heartbeat timeout vs false positives on a lossy single link.

    No fault is ever injected: every takeover observed is a false
    positive caused by heartbeat loss.  Aggressive timeouts on lossy
    links destabilise the pair; generous ones ride the loss out.  Each
    setting runs for 60 s.
    """
    rows: List[Dict[str, Any]] = []
    for loss in (0.05, 0.2):
        for timeout in (300.0, 1_000.0, 3_000.0):
            config = replace_config(OfttConfig(), peer_heartbeat_timeout=timeout)
            scenario = build_pair_env(seed, config, lambda: SyntheticStateApp(cold_kb=1, mode="selective"))
            scenario.start()
            scenario.network.links["lan0"].loss = loss
            scenario.run_for(60_000.0)
            false_takeovers = scenario.trace.count(category="engine", event="takeover")
            dual_resolutions = scenario.trace.count(category="role", event="dual-primary-demote")
            rows.append(
                {
                    "loss": loss,
                    "timeout_ms": timeout,
                    "false_takeovers": false_takeovers,
                    "dual_primary_resolutions": dual_resolutions,
                    "stable_at_end": scenario.pair.is_stable(),
                }
            )
    return rows


def exp_ablation_checkpoint_period(seed: int) -> List[Dict[str, Any]]:
    """Checkpoint period vs staleness at failover vs checkpoint traffic.

    The tradeoff `OFTTSave` exists to escape: long periods mean little
    traffic but more work re-lost at failover; short periods invert it.
    """
    rows: List[Dict[str, Any]] = []
    for period in (250.0, 1_000.0, 4_000.0):
        scenario = build_pair_env(
            seed,
            OfttConfig(),
            lambda p=period: SyntheticStateApp(cold_kb=4, mode="selective", tick_period=50.0, checkpoint_period=p),
        )
        scenario.start()
        scenario.run_for(20_000.0)
        primary = scenario.pair.primary_node()
        app = scenario.pair.apps[primary]
        engine = scenario.pair.engines[primary]
        ticks_before = app.ticks()
        checkpoints = app.api.ftim.checkpoints_taken
        bytes_sent = sum(engine.checkpoint_sizes)
        scenario.systems[primary].power_off()
        scenario.run_for(5_000.0)
        survivor = scenario.pair.primary_node()
        rows.append(
            {
                "checkpoint_period_ms": period,
                "checkpoints_taken": checkpoints,
                "bytes_shipped": bytes_sent,
                "ticks_at_crash": ticks_before,
                "max_staleness_ticks": int(period / 50.0) + 1,
                "recovered": survivor is not None,
            }
        )
    return rows


def exp_availability(seed: int, rounds: int) -> Dict[str, Any]:
    """Availability over a sustained campaign of the four §4 faults.

    Not a single paper artifact but the quantity the whole §4
    demonstration argues for: the Figure 3 testbed goes through *rounds*
    of all four demo faults, each repaired and followed by 10 s of
    service, and keeps delivering service throughout.
    """
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(10_000.0)
    campaign = Campaign(demo.kernel, demo, settle_timeout=30_000.0)
    for _round in range(rounds):
        for make_fault in DEMO_FAULTS:
            target = demo.pair.primary_node()
            campaign.run_fault(make_fault(target))
            campaign.repair(target)
            demo.run_for(10_000.0)
    latencies = [latency for _fault, latency in campaign.latencies()]
    summary = summarize(latencies)
    app = demo.primary_app()
    # Service is down for each fault's recovery window and up otherwise.
    downtime = sum(latencies)
    return {
        "faults_injected": len(campaign.records),
        "all_recovered": campaign.all_recovered(),
        "availability": round(1.0 - downtime / demo.kernel.now, 4),
        "total_downtime_ms": round(downtime, 1),
        "recovery_latency_mean_ms": round(summary["mean"], 1),
        "recovery_latency_max_ms": round(summary["max"], 1),
        "events_generated": demo.history.event_count,
        "events_tracked": app.events_processed() if app else 0,
        "campaign_sim_time_ms": round(demo.kernel.now, 0),
    }


def exp_scada_blackout(seed: int) -> Dict[str, Any]:
    """Monitoring blackout: the operator-facing cost of a station failover.

    In the Figure 1(a) configuration, measures the longest stretch during
    which *no* running monitoring copy applied any OPC update, across a
    primary power-off.  The gap decomposes into failure detection + app
    relaunch + DCOM reconnect + resubscription + first batch — the
    end-to-end number an operator staring at the screen experiences.
    Progress is sampled every 10 ms, for 20 s before the power-off and
    30 s after it.
    """
    scenario = build_remote_monitoring(seed=seed)
    scenario.start()

    samples: List[Any] = []  # (time, cumulative-updates-ever)
    cumulative = {"count": 0, "last_seen": {}}

    def sample() -> None:
        for node, app in scenario.pair.apps.items():
            if app.process is None or not app.process.alive:
                continue
            seen = app.updates_seen()
            last = cumulative["last_seen"].get((node, app.launch_count), 0)
            if seen > last:
                cumulative["count"] += seen - last
            cumulative["last_seen"][(node, app.launch_count)] = seen
        samples.append((scenario.kernel.now, cumulative["count"]))

    step = 10.0
    for _ in range(int(20_000.0 / step)):
        scenario.run_for(step)
        sample()
    primary = scenario.pair.primary_node()
    fault_time = scenario.kernel.now
    scenario.systems[primary].power_off()
    for _ in range(int(30_000.0 / step)):
        scenario.run_for(step)
        sample()

    # Longest stretch without progress.
    gaps: List[float] = []
    last_progress_time = samples[0][0]
    last_count = samples[0][1]
    for time, count in samples[1:]:
        if count > last_count:
            gaps.append(time - last_progress_time)
            last_progress_time = time
            last_count = count
    steady_gaps = [gap for gap in gaps if gap > 0.0]
    timing = failover_timing(scenario.trace, fault_time, scenario.pair.primary_node())
    return {
        "updates_total": samples[-1][1],
        "median_progress_gap_ms": round(summarize(steady_gaps)["p50"], 1) if steady_gaps else None,
        "blackout_ms": round(max(gaps), 1) if gaps else None,
        "failover_latency_ms": timing.failover_latency,
        "resumed": samples[-1][1] > 0 and scenario.pair.is_stable(),
    }


# ---------------------------------------------------------------------------
# S1 — detector sensitivity: miss threshold x timeout over chaos schedules
# ---------------------------------------------------------------------------

#: Faults that must be caught (by heartbeat silence or peer loss).
DESTRUCTIVE_KINDS = frozenset({
    "app-crash", "app-hang", "middleware-crash",
    "node-failure", "bluescreen", "crash-during-checkpoint",
})
#: The subset only the heartbeat path can detect (no exit hook fires),
#: i.e. the faults whose latency actually measures the detector.
HEARTBEAT_ONLY_KINDS = frozenset({
    "app-hang", "node-failure", "bluescreen",
    "middleware-crash", "crash-during-checkpoint",
})
#: Slack added to the attribution window beyond the detector's own
#: worst-case (timeout x miss threshold): scheduling and repair jitter.
ATTRIBUTION_GRACE = 5_000.0


def exp_detector_sweep(seeds: int, schedules: int) -> List[Dict[str, Any]]:
    """S1: detection latency and false positives per detector setting.

    §2.2.1 leaves the heartbeat timeout (and the consecutive-miss
    threshold this reproduction adds) to the deployer.  The same seeded
    chaos schedules run, with the invariant monitors on, at every
    ``(threshold, timeout)`` point, threshold-major; the component and
    peer detectors share the swept timeout.  One row per point.
    """
    runs = [(seed, schedule) for seed, schedule, _ in campaign_tasks(seeds, schedules, 0)]
    rows: List[Dict[str, Any]] = []
    for threshold in (1, 2, 3):
        for timeout in (300.0, 500.0, 1_000.0):
            outcomes = [_detector_run(seed, schedule, threshold, timeout) for seed, schedule in runs]
            latencies = sorted(latency for outcome in outcomes for latency in outcome["latencies"])
            detected = len(latencies)
            rows.append(
                {
                    "miss_threshold": threshold,
                    "timeout_ms": timeout,
                    "runs": len(runs),
                    "faults": sum(outcome["faults"] for outcome in outcomes),
                    "detected": detected,
                    "missed": sum(outcome["missed"] for outcome in outcomes),
                    "mean_latency_ms": round(sum(latencies) / detected, 1) if detected else None,
                    "max_latency_ms": round(latencies[-1], 1) if detected else None,
                    "false_positives": sum(outcome["false_positives"] for outcome in outcomes),
                    "violations": sum(outcome["violations"] for outcome in outcomes),
                }
            )
    return rows


def _detector_run(seed: int, schedule: ChaosSchedule, threshold: int, timeout: float) -> Dict[str, Any]:
    """One schedule under one detector setting.

    A detection (``heartbeat-timeout`` or ``peer-lost``) is attributed
    to a destructive fault when it lands in ``[at, at + timeout *
    threshold + ATTRIBUTION_GRACE]``; an unattributed one is a false
    positive.  Latency and misses count only the heartbeat-only faults.
    """
    config = replace_config(
        OfttConfig(),
        heartbeat_timeout=timeout,
        peer_heartbeat_timeout=timeout,
        heartbeat_miss_threshold=threshold,
    )
    run = ChaosRun(seed=seed, schedule=schedule, config=config)
    violations = len(run.execute().violations)
    trace = run.scenario.trace
    detections = sorted(
        trace.select(category="engine", event="heartbeat-timeout")
        + trace.select(category="engine", event="peer-lost"),
        key=lambda record: record.time,
    )
    window = timeout * threshold + ATTRIBUTION_GRACE
    destructive = [entry for entry in schedule.sorted_entries() if entry.kind in DESTRUCTIVE_KINDS]
    heartbeat_only = [entry for entry in destructive if entry.kind in HEARTBEAT_ONLY_KINDS]
    latencies: List[float] = []
    for entry in heartbeat_only:
        hit = next((r for r in detections if entry.at <= r.time <= entry.at + window), None)
        if hit is not None:
            latencies.append(round(hit.time - entry.at, 3))
    false_positives = sum(
        1
        for record in detections
        if not any(entry.at <= record.time <= entry.at + window for entry in destructive)
    )
    return {
        "faults": len(heartbeat_only),
        "latencies": latencies,
        "missed": len(heartbeat_only) - len(latencies),
        "false_positives": false_positives,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# S2 — replication strategies under primary loss and total pair loss
# ---------------------------------------------------------------------------

#: The two fault stories every strategy faces.  ``primary-crash`` is the
#: paper's case (one node dies, the pair recovers); ``total-pair-loss``
#: kills both pair nodes 50 ms apart, the failure the pair cannot
#: survive and the log-replay DR site exists for.
STRATEGY_SCENARIOS: List[Tuple[str, List[FaultEntry]]] = [
    ("primary-crash", [FaultEntry(10_000.0, "node-failure", {"node": "alpha"})]),
    ("total-pair-loss", [
        FaultEntry(12_000.0, "node-failure", {"node": "alpha"}),
        FaultEntry(12_050.0, "node-failure", {"node": "beta"}),
    ]),
]
#: Run horizon and workload cutoff.  The workload stops well before the
#: horizon so DR activation (5 s of silence) and any queue drain finish
#: inside the run.
STRATEGY_HORIZON = 30_000.0
STRATEGY_WORKLOAD_STOP = 20_000.0


def exp_strategy_comparison(seeds: int) -> List[Dict[str, Any]]:
    """S2: who recovers, how fast, and what is lost, per strategy and story.

    A message-driven chaos testbed (100 ms workload through the
    diverter, 2 s full-checkpoint period: the cold-passive gap the other
    strategies attack) plays each fault story under each replication
    strategy, seeds ``0 .. seeds-1``.  One row per (strategy, story).
    """
    rows: List[Dict[str, Any]] = []
    for strategy in REPLICATION_STRATEGIES:
        for name, entries in STRATEGY_SCENARIOS:
            outcomes = [_strategy_run(strategy, entries, seed) for seed in range(seeds)]
            latencies = sorted(o["recovery_ms"] for o in outcomes if o["recovery_ms"] is not None)
            rows.append(
                {
                    "strategy": strategy,
                    "scenario": name,
                    "runs": seeds,
                    "recovered_by": "/".join(sorted({o["recovered_by"] for o in outcomes})),
                    "mean_recovery_ms": round(sum(latencies) / len(latencies), 1) if latencies else None,
                    "sent": sum(o["sent"] for o in outcomes),
                    "applied": sum(o["applied"] for o in outcomes),
                    "lost": sum(o["lost"] for o in outcomes),
                    "replayed": sum(o["replayed"] for o in outcomes),
                }
            )
    return rows


def _strategy_run(strategy: str, entries: List[FaultEntry], seed: int) -> Dict[str, Any]:
    """One fault story under one strategy: who serves the state at the end.

    ``recovery_ms`` is the first takeover or DR activation at or after
    the last fault; ``lost`` is workload messages the surviving state is
    missing.
    """
    scenario = ChaosScenario(
        seed=seed,
        config=replace_config(OfttConfig(), replication_strategy=strategy),
        workload_period=100.0,
        checkpoint_period=2_000.0,
        message_driven=True,
    )
    injector = FaultInjector(scenario.kernel, scenario)
    for entry in entries:
        injector.inject_at(entry.at, entry.build())
    scenario.start(settle=True)
    scenario.kernel.schedule(
        max(STRATEGY_WORKLOAD_STOP - scenario.kernel.now, 0.0), scenario.stop_workload
    )
    scenario.run(until=STRATEGY_HORIZON)

    fault_at = max(entry.at for entry in entries)
    pair = scenario.pair
    primary = next(
        (
            name
            for name in pair.node_names
            if pair.engines[name].alive and pair.engines[name].role is Role.PRIMARY
        ),
        None,
    )
    recovered_by = "none"
    applied = 0
    replayed = 0
    if primary is not None and pair.apps[primary].applied() > 0:
        recovered_by = "pair"
        applied = pair.apps[primary].applied()
    elif scenario.dr_site is not None and scenario.dr_site.active:
        recovered_by = "dr"
        # Re-reconstruct at the horizon: mirror records that arrived
        # after activation (clients keep logging) count too.
        image, replayed = scenario.dr_site.reconstruct()
        applied = image.get("globals", {}).get("applied", 0)
    recoveries = sorted(
        scenario.trace.select(category="engine", event="takeover")
        + scenario.trace.select(category="drsite", event="dr-activated"),
        key=lambda record: record.time,
    )
    hit = next((r for r in recoveries if r.time >= fault_at), None)
    return {
        "recovered_by": recovered_by,
        "recovery_ms": round(hit.time - fault_at, 1) if hit is not None else None,
        "sent": scenario.workload_sent,
        "applied": applied,
        "lost": scenario.workload_sent - applied,
        "replayed": replayed,
    }


# ---------------------------------------------------------------------------
# S3 — adaptive recovery policy vs static rules over drifting fault mixes
# ---------------------------------------------------------------------------

#: Policy name -> OfttConfig overrides: the paper's static rule, two
#: detector tunings of it, the two degenerate rules, and the adaptive
#: layer with everything at defaults.
POLICY_CONFIGS: List[Tuple[str, Dict[str, Any]]] = [
    ("static-default", {}),
    ("static-fast", {"heartbeat_timeout": 300.0, "peer_heartbeat_timeout": 300.0}),
    ("static-safe", {"heartbeat_miss_threshold": 3}),
    ("static-local-only", {"default_rule": RecoveryRule.local_only()}),
    ("static-always-failover", {"default_rule": RecoveryRule.always_failover()}),
    ("adaptive", {"adaptive_policy": True}),
]
#: Stability sample period (ms) for the unavailability integral.
POLICY_SAMPLE_PERIOD = 25.0
#: A unilateral promotion within this window after a destructive entry
#: is attributed to it; later ones are spurious.
POLICY_FP_WINDOW = 2_500.0


def exp_policy_comparison(seeds: int) -> List[Dict[str, Any]]:
    """S3: mean recovery latency and spurious failovers per policy and drift.

    The same deterministic drifting fault mixes (every destructive motif
    hits both pair nodes) run under every policy, seeds ``0 ..
    seeds-1``.  *Mean recovery* is the sampled time the pair is out of
    its steady state (one live primary, all apps running; a dual
    primary counts as unstable) divided by the destructive entries, so a
    policy cannot look good by recovering somewhere else while the unit
    is still down.  *Spurious failovers* are unilateral promotions (peer
    heartbeat loss, dual-backup resolution) with no destructive entry in
    the preceding ``POLICY_FP_WINDOW``; coordinated switchovers never
    count.  One row per (profile, policy), profiles in name order.
    """
    rows: List[Dict[str, Any]] = []
    for profile in sorted(DRIFT_PROFILES):
        for policy, overrides in POLICY_CONFIGS:
            outcomes = [_policy_run(overrides, profile, seed) for seed in range(seeds)]
            faults = sum(o["destructive"] for o in outcomes)
            unstable = sum(o["unstable_ms"] for o in outcomes)
            rows.append(
                {
                    "profile": profile,
                    "policy": policy,
                    "runs": seeds,
                    "faults": faults,
                    "unstable_ms": round(unstable, 1),
                    "mean_recovery_ms": round(unstable / faults, 1) if faults else None,
                    "spurious_failovers": sum(o["spurious"] for o in outcomes),
                    "strategy_switches": sum(o["switches"] for o in outcomes),
                }
            )
    return rows


def _policy_run(overrides: Dict[str, Any], profile: str, seed: int) -> Dict[str, Any]:
    """One drift profile under one policy's config overrides."""
    scenario = ChaosScenario(seed=seed, config=replace_config(OfttConfig(), **overrides))
    schedule = drift_schedule(profile, list(scenario.PAIR_NODES), scenario.APP_NAME)
    injector = FaultInjector(scenario.kernel, scenario)
    for entry in schedule.sorted_entries():
        injector.inject_at(entry.at, entry.build())
    scenario.start(settle=True)

    unstable = {"ms": 0.0}

    def sample() -> None:
        if scenario.kernel.now >= schedule.horizon:
            return
        if not scenario.pair.is_stable():  # False on a dual primary too
            unstable["ms"] += POLICY_SAMPLE_PERIOD
        scenario.kernel.schedule(POLICY_SAMPLE_PERIOD, sample)

    scenario.kernel.schedule(POLICY_SAMPLE_PERIOD, sample)
    scenario.run(until=schedule.horizon)

    destructive = [e for e in schedule.sorted_entries() if e.kind in DRIFT_DESTRUCTIVE_KINDS]
    unilateral = [
        record
        for record in scenario.trace.select(category="engine", event="takeover")
        if record.detail.get("reason") in ("peer heartbeat loss", "dual-backup resolution")
    ]
    spurious = sum(
        1
        for record in unilateral
        if not any(e.at <= record.time <= e.at + POLICY_FP_WINDOW for e in destructive)
    )
    switches = sum(
        engine.strategy_switch_count
        for engine in scenario.pair.engines.values()
        if engine.alive
    )
    return {
        "unstable_ms": round(unstable["ms"], 1),
        "destructive": len(destructive),
        "spurious": spurious,
        "switches": switches,
    }
