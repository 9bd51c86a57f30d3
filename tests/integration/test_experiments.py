"""Every registered experiment, run once and checked.

``test_experiment_result_matches_golden[X3]`` runs ``run_experiments X3``
once, at the registry's seed and parameters, pins its canonical result
to a golden digest and then asserts its paper claim (``CHECKS``).  Ids
map to paper artifacts through the experiment index in DESIGN.md §4;
each check names the claim or expected shape its assertions test.

The registry is the only caller of an experiment: no test re-runs one
at other seeds or sizes, so every claim about a result lives in its
``CHECKS`` entry and holds on the one result the registry produces.
"""

import hashlib
import inspect
import json
import pathlib
import re

import pytest

from repro.harness import experiments as E
from repro.harness.run_experiments import EXPERIMENTS
from repro.simnet.trace import canonical_value

REPO = pathlib.Path(__file__).resolve().parents[2]

#: sha256 of each experiment's canonical result.  A mismatch means a
#: table in EXPERIMENTS.md changed: re-record the digest only together
#: with the table it pins.
GOLDEN = {
    "F1": "928ff293fd30a3d2e70c32db48ba8fba17220fffc7dfc50516a5a82729f381a9",
    "F2": "312b65baf7483d6e46e28b59ef4c2ff153a7fdfee91d788a4def0f1198da15c5",
    "F3": "6d38bf0742ed7d4a67adae0d67041c972fb08463b700b3cfbb343d4a93163368",
    "D": "6a492641b479d1ccd8efe0edaff5f3e7b702cc7c8a4971d6ac10df6ae11013ee",
    "X1": "297070b6f099864a292dc825edb739465d8589a85ffa3c1ababdf58acc7f4cdd",
    "X2": "db964e3bed2ee723a1948c621a9c0f02e2854d3c690e6f2ccb69ecdeecf897a2",
    "X3": "b5253a4d5a6d8506af016c1357796d4399bd1b30bfacbbb0caa9aa00795f07c5",
    "X4": "ce99a7bce6d8211908825fa8c39861e480ed2506c84e364618f7946e62919299",
    "X5": "11cd886aca15627c73c1a1755a6a111738980468ddfa1f1fae8541716acfa784",
    "X6": "9eaca92f533c5a107ad41c4618ed1ddf4b795c456007ab1ebf70daf90b1a0dea",
    "X7": "78c98097d9283d065973ada7fb55e857198bf279a3a8d74c5f10ddeec73a57b9",
    "A1": "a7d5c5397e5c85583ba2e04a32df86d31d3aad08e0487e89bb4085662666192e",
    "A2": "44f0562bbfded6dc60b3d2d0233833ab84f3191910e96e958bc8c5f5f067ba28",
    "A3": "17d73c4a1937438063058978fc7b45bcd5c7bf72253bd21180596ce5d7ced69a",
    "A4": "ce672874b92a7300dce0460d2e3063ec1ac6041de9d326beebff794db8156720",
    "BL": "4714bb5a0c4a043c94bbf949ede24f5a887a010cd75e80ccc135363cdc5cc086",
    "S1": "7d0787e115fdb7a4f24f07aa3c1c0ae436ec0aad4d0b394b6e3d3667b4647ce4",
    "S2": "a9784d72d866930a8d0e12e5111d9abaee0ff065d7c9fa5dde51e80041ca00ef",
    "S3": "6c722e79dcbacfca5305baa6ec6dcb9e8ff9f953cc1fa3a996bcc13ce6a796dd",
}


def check_reference_configs(rows):
    """F1a/F1b (Figure 1): both configurations carry live plant data
    through the OPC stack and survive a node failure of the pair."""
    assert [row["config"].split()[0] for row in rows] == ["F1a", "F1b"]
    assert all(row["updates_before"] > 100 for row in rows)
    assert all(row["survived"] for row in rows)
    assert all(row["primary_after"] != row["primary_before"] for row in rows)


def check_architecture(result):
    """F2 (Figure 2): engine, FTIMs, diverter and monitor are wired and
    every data flow is live; only the primary's app copy executes."""
    assert result["engine_processes_alive"]
    assert result["ftim_linked"]
    assert result["ftim_heartbeats"] > 50
    assert result["checkpoints_sent"] > 5
    assert result["checkpoints_mirrored"] > 5
    assert result["checkpoint_acked_seq"] >= 1
    assert result["monitor_reports"] > 10
    assert result["monitor_sees_primary"]
    assert not result["app_running_on_backup"]


def check_demo_config(rows):
    """F3/T1 (Figure 3, Table 1): every software element runs where the
    paper puts it."""
    assert all(row["app_running"] == row["expected_app_running"] for row in rows)
    by_node = {row["node"]: row for row in rows}
    assert set(by_node) == {"node1", "node2", "test-pc"}
    # Both pair nodes run an engine; exactly one runs the app.
    pair_rows = [by_node["node1"], by_node["node2"]]
    assert sorted(row["role"] for row in pair_rows) == ["backup", "primary"]
    assert all(row["engine_alive"] for row in pair_rows)
    assert sum(row["app_running"] for row in pair_rows) == 1
    assert by_node["test-pc"]["app_running"]  # the telephone simulator


def check_failover_demos(rows):
    """D-a..D-d (§4): the system continues operating through node
    failure, NT crash, application failure and middleware failure."""
    assert all(row["continued_operation"] for row in rows)
    assert [row["demo"] for row in rows] == ["a", "b", "c", "d"]
    # Switchover demos complete within ~1 heartbeat timeout + promotion.
    for row in rows:
        assert row["recovery_ms"] is not None and row["recovery_ms"] < 5_000.0
    # Node-level failures (a, b, d) switch over; the transient app crash
    # (c) recovers in place.
    assert [row["switched_over"] for row in rows] == [True, True, False, True]
    # Demos a-c lose nothing (diverter retry + event-based checkpoints);
    # demo (d) has a bounded engine-death window of one FTIM heartbeat.
    assert all(row["events_lost"] == 0 for row in rows if row["demo"] != "d")
    assert all(row["events_lost"] <= 3 for row in rows)


def check_checkpoint_cost(rows):
    """X1 (§2.2.2): user-directed ``OFTTSelSave`` checkpoints stay small
    and constant while the full walkthrough grows with the state."""
    # Checkpoints actually reached the peer (acks flowed).
    assert all(row["acked_seq"] > 0 for row in rows)
    by_key = {(row["cold_kb"], row["mode"]): row["mean_bytes"] for row in rows}
    sizes = (16, 64, 256)
    for size in sizes:
        assert by_key[(size, "selective")] < by_key[(size, "full")] / 10
        assert by_key[(size, "incremental")] < by_key[(size, "full")] / 5
    # Full grows with the state; selective does not.
    assert by_key[(64, "full")] > by_key[(16, "full")] * 2
    assert by_key[(256, "full")] > by_key[(16, "full")] * 4
    assert len({by_key[(size, "selective")] for size in sizes}) == 1


def check_detection_latency(rows):
    """X2 (§2.2.1): a hang is detected after the heartbeat timeout, within
    a few sweep periods, monotone in the timeout."""
    assert all(row["detected"] for row in rows)
    latencies = [row["detection_ms"] for row in rows]
    assert all(a < b for a, b in zip(latencies, latencies[1:]))  # strictly, in the timeout
    for row in rows:
        assert row["timeout_ms"] <= row["detection_ms"] <= row["timeout_ms"] + 4 * row["heartbeat_period_ms"]


def check_startup_retries(rows):
    """X3 (§3.2): "the first node that starts up would frequently shut
    down" until startup retries were added."""
    assert rows[0]["retries"] == 0  # the original logic
    rates = [row["shutdown_rate"] for row in rows]
    assert rates[0] > 0.2  # the original logic fails often
    assert rates == sorted(rates, reverse=True)  # retries monotonically help
    assert rates[-1] == 0.0  # and eventually solve it, as the paper reports
    assert rows[-1]["stable_pairs"] == rows[-1]["runs"]


def check_diverter(rows):
    """X4 (§2.2.3): messages sent during a switchover are retried, so the
    diverter loses far less than a naive fire-and-forget sender."""
    diverter, naive = rows
    assert (diverter["variant"], naive["variant"]) == ("diverter", "naive")
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
    assert result["oftt_failover_latency_ms"] is not None


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


def check_availability(result):
    """A4 (§4, sustained): through twelve mixed demo faults with repairs
    every fault is recovered and service stays up over 95% of the time."""
    assert result["all_recovered"]
    assert result["availability"] > 0.95
    assert result["events_generated"] - result["events_tracked"] <= 3 * 3  # demo-d windows only


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
    # One row per grid point, threshold-major; each runs the registry's
    # 4 seeds x 3 schedules.
    assert list(latency) == [(threshold, timeout) for threshold in thresholds for timeout in timeouts]
    assert all(row["runs"] == 4 * 3 for row in rows)
    for threshold in thresholds:
        series = [latency[(threshold, timeout)] for timeout in timeouts]
        assert series == sorted(series)  # monotone in the timeout
    for timeout in timeouts:
        series = [latency[(threshold, timeout)] for threshold in thresholds]
        assert series == sorted(series)  # monotone in the threshold
    for row in rows:
        assert row["detected"] + row["missed"] == row["faults"]
        assert row["violations"] == 0
        if row["detected"]:
            assert row["mean_latency_ms"] <= row["max_latency_ms"]
        else:
            assert row["mean_latency_ms"] is None and row["max_latency_ms"] is None


def check_strategy_comparison(rows):
    """S2 (DESIGN.md §3b): only the log-replay DR site recovers a total
    pair loss, and it loses nothing; leader-follower's update stream
    loses less than cold-passive's checkpoint gap on a primary crash."""
    by_key = {(row["strategy"], row["scenario"]): row for row in rows}
    survivors = [
        row["strategy"] for row in rows if row["scenario"] == "total-pair-loss" and row["recovered_by"] != "none"
    ]
    assert survivors == ["log-replay-dr"]
    # Cold-passive has nobody left to recover anything.
    cold_loss = by_key[("cold-passive", "total-pair-loss")]
    assert cold_loss["applied"] == 0 and cold_loss["lost"] == cold_loss["sent"]
    dr = by_key[("log-replay-dr", "total-pair-loss")]
    assert dr["recovered_by"] == "dr" and dr["lost"] == 0
    assert dr["replayed"] > 0 and dr["mean_recovery_ms"] is not None
    cold = by_key[("cold-passive", "primary-crash")]
    leader = by_key[("leader-follower", "primary-crash")]
    assert cold["recovered_by"] == leader["recovered_by"] == "pair"
    # The update stream loses at most the in-flight tail of each run.
    assert leader["lost"] <= 2 * leader["runs"]
    assert leader["lost"] < cold["lost"]


def check_policy_comparison(rows):
    """S3 (DESIGN.md §3c): every drift profile runs every policy, only the
    adaptive policy switches strategy, and it dominates on ``mixed``."""
    policies = [name for name, _ in E.POLICY_CONFIGS]
    by_profile = {}
    for row in rows:
        by_profile.setdefault(row["profile"], []).append(row)
        assert row["faults"] > 0 and row["mean_recovery_ms"] is not None
    for profile_rows in by_profile.values():
        assert [row["policy"] for row in profile_rows] == policies
    # Gray is the switch-provoking profile: peer-gap evidence is seen by
    # both engines, so the serving primary reaches a hot-standby regime.
    switches = {row["policy"]: row["strategy_switches"] for row in by_profile["gray"]}
    assert switches.pop("adaptive") > 0
    assert set(switches.values()) == {0}
    check_adaptive_dominates(rows)


def check_adaptive_dominates(rows):
    """S3's claim: on the ``mixed`` drifting fault mix the adaptive
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
    "A4": check_availability,
    "BL": check_scada_blackout,
    "S1": check_detector_sweep,
    "S2": check_strategy_comparison,
    "S3": check_policy_comparison,
}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment_result_matches_golden(experiment_id):
    _title, runner = EXPERIMENTS[experiment_id]
    result = runner()
    payload = json.dumps(canonical_value(result), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[experiment_id]
    CHECKS[experiment_id](result)


def ids_after_run_experiments(text):
    """Every id named after ``run_experiments`` (``run_experiments A1 A2``: both)."""
    runs = re.finditer(r"run_experiments((?:[ \t]+[A-Z][A-Z0-9]*\b)+)", text)
    return {experiment_id for run in runs for experiment_id in run.group(1).split()}


def test_experiment_ids_in_step():
    """Registry, digests, checks and both documents name the same ids."""
    design = (REPO / "DESIGN.md").read_text()
    index = design.split("\n## 4. ", 1)[1].split("\n## 5. ", 1)[0]
    registry = set(EXPERIMENTS)
    assert set(GOLDEN) == registry
    assert set(CHECKS) == registry
    assert ids_after_run_experiments(index) == registry
    assert ids_after_run_experiments((REPO / "EXPERIMENTS.md").read_text()) == registry


#: The only arguments the registry passes to an experiment.
REGISTRY_ARGUMENTS = {"seed", "seeds", "rounds", "schedules"}


def test_registry_is_the_one_definition_of_each_experiment():
    """Every ``exp_*`` takes only registry arguments, none defaulted, and
    exactly one registry runner calls it; nothing else calls one."""
    experiments = {name: value for name, value in vars(E).items() if name.startswith("exp_")}
    for name, function in experiments.items():
        for parameter in inspect.signature(function).parameters.values():
            assert parameter.name in REGISTRY_ARGUMENTS, f"{name}({parameter.name})"
            assert parameter.default is inspect.Parameter.empty, f"{name}({parameter.name}=...)"
    calls = {
        name: sum(name in runner.__code__.co_names for _title, runner in EXPERIMENTS.values())
        for name in experiments
    }
    assert calls == dict.fromkeys(experiments, 1)
    harness = REPO / "src" / "repro" / "harness"
    callers = [
        str(path.relative_to(REPO))
        for top in ("src", "tests", "examples", "e2ebench")
        for path in sorted((REPO / top).rglob("*.py"))
        if path not in (harness / "experiments.py", harness / "run_experiments.py")
        and re.search(r"\bexp_\w+\(", path.read_text())
    ]
    assert callers == []


def test_s3_check_passes_on_dominant_adaptive_and_fails_otherwise():
    def row(policy, mean, spurious):
        return {
            "profile": "mixed",
            "policy": policy,
            "mean_recovery_ms": mean,
            "spurious_failovers": spurious,
        }

    check_adaptive_dominates([row("static-default", 150.0, 2), row("adaptive", 100.0, 0)])
    with pytest.raises(AssertionError, match="not below"):
        check_adaptive_dominates([row("static-default", 90.0, 2), row("adaptive", 100.0, 0)])
    with pytest.raises(AssertionError, match="spurious"):
        check_adaptive_dominates([row("static-default", 150.0, 0), row("adaptive", 100.0, 1)])
    with pytest.raises(AssertionError, match="no adaptive row for profile 'mixed'"):
        check_adaptive_dominates([row("static-default", 150.0, 0)])
