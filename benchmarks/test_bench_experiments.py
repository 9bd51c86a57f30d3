"""Every registered experiment, run once and checked against its claim.

One test per id of :data:`repro.harness.run_experiments.EXPERIMENTS`
(``test_bench_experiment[X3]`` runs ``run_experiments X3``), so titles,
seeds and parameters come only from the registry.  Ids map to paper
artifacts through the experiment index in DESIGN.md §4; each check below
names the claim or expected shape its assertions test.
"""

import pytest

from repro.harness.run_experiments import EXPERIMENTS

from benchmarks.conftest import print_result


def check_reference_configs(rows):
    """F1a/F1b (Figure 1): both configurations carry live plant data
    through the OPC stack and survive a node failure of the pair."""
    assert all(row["survived"] for row in rows)
    assert all(row["primary_after"] != row["primary_before"] for row in rows)


def check_architecture(result):
    """F2 (Figure 2): engine, FTIMs, diverter and monitor are wired and
    every data flow is live; only the primary's app copy executes."""
    assert result["engine_processes_alive"]
    assert result["ftim_linked"]
    assert result["checkpoints_mirrored"] > 0
    assert result["monitor_sees_primary"]
    assert not result["app_running_on_backup"]


def check_demo_config(rows):
    """F3/T1 (Figure 3, Table 1): every software element runs where the
    paper puts it."""
    assert all(row["app_running"] == row["expected_app_running"] for row in rows)
    assert sorted(row["role"] for row in rows if row["node"] != "test-pc") == ["backup", "primary"]


def check_failover_demos(rows):
    """D-a..D-d (§4): the system continues operating through node
    failure, NT crash, application failure and middleware failure."""
    assert all(row["continued_operation"] for row in rows)
    assert [row["demo"] for row in rows] == ["a", "b", "c", "d"]
    # Switchover demos complete within ~1 heartbeat timeout + promotion.
    for row in rows:
        assert row["recovery_ms"] is not None and row["recovery_ms"] < 5_000.0


def check_checkpoint_cost(rows):
    """X1 (§2.2.2): user-directed ``OFTTSelSave`` checkpoints stay small
    and constant while the full walkthrough grows with the state."""
    by_key = {(row["cold_kb"], row["mode"]): row["mean_bytes"] for row in rows}
    for size in (16, 64, 256):
        assert by_key[(size, "selective")] < by_key[(size, "full")] / 10
        assert by_key[(size, "incremental")] < by_key[(size, "full")] / 2
    # Full grows with the state; selective does not.
    assert by_key[(256, "full")] > by_key[(16, "full")] * 4
    assert by_key[(256, "selective")] == by_key[(16, "selective")]


def check_detection_latency(rows):
    """X2 (§2.2.1): a hang is detected after the heartbeat timeout, within
    a few sweep periods, monotone in the timeout."""
    assert all(row["detected"] for row in rows)
    latencies = [row["detection_ms"] for row in rows]
    assert latencies == sorted(latencies)  # monotone in the timeout
    for row in rows:
        assert row["timeout_ms"] <= row["detection_ms"] <= row["timeout_ms"] + 4 * row["heartbeat_period_ms"]


def check_startup_retries(rows):
    """X3 (§3.2): "the first node that starts up would frequently shut
    down" until startup retries were added."""
    rates = [row["shutdown_rate"] for row in rows]
    assert rates[0] > 0.2  # the original logic fails often
    assert rates == sorted(rates, reverse=True)  # retries monotonically help
    assert rates[-1] == 0.0  # and eventually solve it, as the paper reports


def check_diverter(rows):
    """X4 (§2.2.3): messages sent during a switchover are retried, so the
    diverter loses far less than a naive fire-and-forget sender."""
    diverter, naive = rows
    assert diverter["loss_rate"] < naive["loss_rate"]
    assert diverter["loss_rate"] < 0.01
    assert naive["events_lost"] > diverter["events_lost"]


def check_recovery_rules(rows):
    """X5 (§2.2.1): a local-restart rule recovers in place, an
    always-failover rule hands over to the peer; both recover."""
    local, failover = rows
    assert local["recovered"] and failover["recovered"]
    assert not local["switched_over"] and local["local_restarts"] == 1
    assert failover["switched_over"] and failover["local_restarts"] == 0


def check_dcom(result):
    """X6 (§3.3): DCOM's RPC "does not behave well in the presence of
    failures"; OFTT's heartbeats detect a dead node well inside the RPC
    timeout."""
    assert result["dead_node_rpc_latency_ms"] >= result["rpc_timeout_config_ms"]
    assert result["dead_process_latency_ms"] < 100.0
    assert result["oftt_detection_latency_ms"] < result["dead_node_rpc_latency_ms"] / 2


def check_api_levels(rows):
    """X7 (§2.2.2): each transparency level trades checkpoint bytes
    against staleness; event-based ``OFTTSave`` loses no completed call."""
    levels = {row["level"]: row for row in rows}
    assert levels["L2 selective"]["mean_checkpoint_bytes"] < levels["L1 init-only"]["mean_checkpoint_bytes"]
    assert levels["L3 event-based"]["checkpoints_taken"] >= levels["L2 selective"]["checkpoints_taken"]
    assert levels["L3 event-based"]["events_lost"] == 0


def check_ablation_dual_lan(rows):
    """A1 (§2.1): what the redundant Ethernet segment buys."""
    single, dual = rows
    assert single["ethernet_segments"] == 1
    # Single LAN: losing the segment splits the pair into dual primaries
    # for the outage; dual LAN: the redundant path hides it completely.
    assert single["dual_primary_window_ms"] > 0
    assert dual["dual_primary_window_ms"] == 0
    assert single["resolved_after_heal"] and dual["resolved_after_heal"]


def check_ablation_heartbeat_loss(rows):
    """A2: false takeovers on a lossy link when nothing is failing."""
    # At any loss rate, generous timeouts produce no more false
    # takeovers than aggressive ones.
    by_loss = {}
    for row in rows:
        by_loss.setdefault(row["loss"], []).append(row)
    for loss, entries in by_loss.items():
        entries.sort(key=lambda row: row["timeout_ms"])
        takeovers = [row["false_takeovers"] for row in entries]
        assert takeovers == sorted(takeovers, reverse=True) or takeovers[-1] <= takeovers[0]
        # The most generous timeout is always stable.
        assert entries[-1]["false_takeovers"] == 0


def check_ablation_checkpoint_period(rows):
    """A3: the staleness/traffic tradeoff that motivates ``OFTTSave``."""
    assert all(row["recovered"] for row in rows)
    checkpoints = [row["checkpoints_taken"] for row in rows]
    staleness = [row["max_staleness_ticks"] for row in rows]
    assert checkpoints == sorted(checkpoints, reverse=True)  # traffic falls
    assert staleness == sorted(staleness)  # staleness bound grows


def check_scada_blackout(result):
    """BL (Figure 1a): the plant picture freezes for about the failover
    latency plus a few group update periods."""
    assert result["resumed"]
    assert result["failover_latency_ms"] is not None
    # Blackout is bounded: failover + a few update periods.
    assert result["blackout_ms"] < result["failover_latency_ms"] + 5 * 200.0
    # And strictly worse than the steady-state cadence (it is a real gap).
    assert result["blackout_ms"] > result["median_progress_gap_ms"]


def check_detector_sweep(rows):
    """S1 (§2.2.1): detection latency grows with the heartbeat timeout and
    with the miss threshold, every heartbeat-only fault is either
    detected or missed, and no detector setting costs an invariant."""
    latency = {(row["miss_threshold"], row["timeout_ms"]): row["mean_latency_ms"] for row in rows}
    thresholds = sorted({threshold for threshold, _ in latency})
    timeouts = sorted({timeout for _, timeout in latency})
    for threshold in thresholds:
        series = [latency[(threshold, timeout)] for timeout in timeouts]
        assert series == sorted(series)  # monotone in the timeout
    for timeout in timeouts:
        series = [latency[(threshold, timeout)] for threshold in thresholds]
        assert series == sorted(series)  # monotone in the threshold
    for row in rows:
        assert row["detected"] + row["missed"] == row["faults"]
        assert row["violations"] == 0


def check_strategy_comparison(rows):
    """S2 (DESIGN.md §3b): only the log-replay DR site recovers a total
    pair loss, and it loses nothing; leader-follower's update stream
    loses less than cold-passive's checkpoint gap on a primary crash."""
    by_key = {(row["strategy"], row["scenario"]): row for row in rows}
    survivors = [
        row["strategy"] for row in rows if row["scenario"] == "total-pair-loss" and row["recovered_by"] != "none"
    ]
    assert survivors == ["log-replay-dr"]
    assert by_key[("log-replay-dr", "total-pair-loss")]["lost"] == 0
    assert by_key[("leader-follower", "primary-crash")]["lost"] < by_key[("cold-passive", "primary-crash")]["lost"]


def check_policy_comparison(rows):
    """S3 (DESIGN.md §3c): on the ``mixed`` drifting fault mix the adaptive
    policy's mean recovery is below every static policy's, at no more
    spurious failovers."""
    mixed = {row["policy"]: row for row in rows if row["profile"] == "mixed"}
    adaptive = mixed.pop("adaptive", None)
    assert adaptive is not None, "no adaptive row for profile 'mixed'"
    for name, row in sorted(mixed.items()):
        assert adaptive["mean_recovery_ms"] < row["mean_recovery_ms"], (
            f"adaptive mean {adaptive['mean_recovery_ms']}ms is not below {name} ({row['mean_recovery_ms']}ms)"
        )
        assert adaptive["spurious_failovers"] <= row["spurious_failovers"], (
            f"adaptive spurious failovers {adaptive['spurious_failovers']} exceed {name} "
            f"({row['spurious_failovers']})"
        )


CHECKS = {
    "F1": check_reference_configs,
    "F2": check_architecture,
    "F3": check_demo_config,
    "D": check_failover_demos,
    "X1": check_checkpoint_cost,
    "X2": check_detection_latency,
    "X3": check_startup_retries,
    "X4": check_diverter,
    "X5": check_recovery_rules,
    "X6": check_dcom,
    "X7": check_api_levels,
    "A1": check_ablation_dual_lan,
    "A2": check_ablation_heartbeat_loss,
    "A3": check_ablation_checkpoint_period,
    "BL": check_scada_blackout,
    "S1": check_detector_sweep,
    "S2": check_strategy_comparison,
    "S3": check_policy_comparison,
}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_bench_experiment(benchmark, experiment_id):
    title, runner = EXPERIMENTS[experiment_id]
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    print_result(title, result)
    CHECKS[experiment_id](result)
