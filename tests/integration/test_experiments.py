"""Integration tests for the experiment runners.

The smoke tests assert the *shape* of each X- and S-series result — who
wins, in which direction — with small parameters; the benchmarks run the
full versions.  The golden test pins every registered experiment's exact
result at its registry seed and parameters.
"""

import hashlib
import json

import pytest

from repro.harness import experiments as E
from repro.harness.run_experiments import EXPERIMENTS
from repro.simnet.trace import canonical_value

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
    "BL": "4714bb5a0c4a043c94bbf949ede24f5a887a010cd75e80ccc135363cdc5cc086",
    "S1": "7d0787e115fdb7a4f24f07aa3c1c0ae436ec0aad4d0b394b6e3d3667b4647ce4",
    "S2": "a9784d72d866930a8d0e12e5111d9abaee0ff065d7c9fa5dde51e80041ca00ef",
    "S3": "6c722e79dcbacfca5305baa6ec6dcb9e8ff9f953cc1fa3a996bcc13ce6a796dd",
}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment_result_matches_golden(experiment_id):
    _title, runner = EXPERIMENTS[experiment_id]
    payload = json.dumps(canonical_value(runner()), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[experiment_id]


def test_x1_checkpoint_cost_shape():
    rows = E.exp_checkpoint_cost(seed=41, cold_sizes_kb=[16, 64], run_time=10_000.0)
    by_key = {(row["cold_kb"], row["mode"]): row for row in rows}
    # Selective is dramatically smaller than full and does not grow with
    # the cold payload.
    assert by_key[(16, "selective")]["mean_bytes"] < by_key[(16, "full")]["mean_bytes"] / 10
    assert by_key[(64, "selective")]["mean_bytes"] == by_key[(16, "selective")]["mean_bytes"]
    # Full grows roughly linearly with the state size.
    assert by_key[(64, "full")]["mean_bytes"] > by_key[(16, "full")]["mean_bytes"] * 2
    # Incremental sits between: far below full, above selective here
    # (it re-ships every changed hot variable plus region overhead).
    assert by_key[(64, "incremental")]["mean_bytes"] < by_key[(64, "full")]["mean_bytes"] / 5
    # Checkpoints actually reached the peer (acks flowed).
    assert all(row["acked_seq"] > 0 for row in rows)


def test_x2_detection_latency_scales_with_timeout():
    rows = E.exp_detection_latency(
        seed=42,
        settings=[
            {"period": 50.0, "timeout": 200.0},
            {"period": 250.0, "timeout": 1_000.0},
        ],
    )
    assert all(row["detected"] for row in rows)
    fast, slow = rows
    # Detection happens after the timeout but within timeout + a few sweeps.
    assert fast["detection_ms"] >= fast["timeout_ms"]
    assert fast["detection_ms"] <= fast["timeout_ms"] + 4 * fast["heartbeat_period_ms"]
    assert slow["detection_ms"] > fast["detection_ms"]


def test_x3_retries_eliminate_false_shutdowns():
    rows = E.exp_startup(seeds=list(range(12)), retry_settings=[0, 5])
    original, fixed = rows
    assert original["retries"] == 0
    # §3.2: the original logic frequently shuts the first node down...
    assert original["false_shutdowns"] > 0
    # ...and the retry fix eliminates it.
    assert fixed["false_shutdowns"] == 0
    assert fixed["stable_pairs"] == fixed["runs"]


def test_x4_diverter_beats_naive_sender():
    rows = E.exp_diverter(seeds=[0, 1, 2])
    diverter, naive = rows
    assert diverter["variant"] == "diverter"
    assert diverter["events_lost"] <= naive["events_lost"]
    assert naive["events_lost"] > 0
    assert diverter["loss_rate"] < 0.01


def test_x5_rules_drive_recovery_style():
    rows = E.exp_recovery_rules(seed=43)
    local, failover = rows
    assert local["recovered"] and failover["recovered"]
    assert not local["switched_over"]
    assert local["local_restarts"] == 1
    assert failover["switched_over"]
    assert failover["local_restarts"] == 0


def test_x6_oftt_detects_faster_than_dcom_rpc():
    result = E.exp_dcom(seed=44)
    # Dead process: quick, explicit disconnect.
    assert result["dead_process_latency_ms"] < 100.0
    # Dead node: raw DCOM burns the whole RPC timeout...
    assert result["dead_node_rpc_latency_ms"] >= result["rpc_timeout_config_ms"]
    # ...while OFTT's heartbeats detect it within the short timeout.
    assert result["oftt_detection_latency_ms"] < result["dead_node_rpc_latency_ms"] / 2
    assert result["oftt_failover_latency_ms"] is not None


def test_x7_api_levels_tradeoff():
    rows = E.exp_api_levels(seed=45, warmup=20_000.0)
    levels = {row["level"]: row for row in rows}
    l1 = levels["L1 init-only"]
    l2 = levels["L2 selective"]
    l3 = levels["L3 event-based"]
    # Selective designation shrinks checkpoints.
    assert l2["mean_checkpoint_bytes"] < l1["mean_checkpoint_bytes"]
    # Event-based saving checkpoints more often...
    assert l3["checkpoints_taken"] >= l2["checkpoints_taken"]
    # ...and loses no completed work on failover.
    assert l3["events_lost"] == 0


def small_detector_sweep():
    return E.exp_detector_sweep(thresholds=[1, 2], timeouts=[500.0], seeds=1, schedules=2)


def test_s1_rows_follow_grid_order_and_shape():
    rows = small_detector_sweep()
    assert [(row["miss_threshold"], row["timeout_ms"]) for row in rows] == [(1, 500.0), (2, 500.0)]
    for row in rows:
        assert row["runs"] == 2
        assert row["detected"] + row["missed"] == row["faults"]
        assert row["false_positives"] >= 0
        if row["detected"]:
            assert row["mean_latency_ms"] <= row["max_latency_ms"]
        else:
            assert row["mean_latency_ms"] is None


def test_s1_higher_threshold_never_detects_faster():
    fast, slow = small_detector_sweep()
    if fast["detected"] and slow["detected"]:
        assert slow["mean_latency_ms"] >= fast["mean_latency_ms"]


def strategy_rows():
    return {(row["strategy"], row["scenario"]): row for row in E.exp_strategy_comparison(seeds=1)}


def test_s2_total_pair_loss_contrast():
    # The headline comparison: only log-replay-dr survives losing both
    # pair nodes — cold-passive has nobody left to recover anything.
    rows = strategy_rows()
    cold = rows[("cold-passive", "total-pair-loss")]
    assert cold["recovered_by"] == "none"
    assert cold["applied"] == 0
    assert cold["lost"] == cold["sent"]

    dr = rows[("log-replay-dr", "total-pair-loss")]
    assert dr["recovered_by"] == "dr"
    assert dr["lost"] == 0
    assert dr["replayed"] > 0
    assert dr["mean_recovery_ms"] is not None


def test_s2_leader_follower_narrows_checkpoint_gap():
    rows = strategy_rows()
    cold = rows[("cold-passive", "primary-crash")]
    lf = rows[("leader-follower", "primary-crash")]
    assert cold["recovered_by"] == lf["recovered_by"] == "pair"
    # Cold-passive replays into its 2s checkpoint gap; the update stream
    # loses at most the in-flight tail.
    assert lf["lost"] <= 2
    assert cold["lost"] > lf["lost"]


def test_s3_rows_shape_and_order():
    rows = E.exp_policy_comparison(profiles=["crashy"], seeds=1)
    assert [row["policy"] for row in rows] == [name for name, _ in E.POLICY_CONFIGS]
    for row in rows:
        assert row["profile"] == "crashy"
        assert row["faults"] > 0
        assert row["mean_recovery_ms"] is not None
        assert row["spurious_failovers"] >= 0


def test_s3_only_adaptive_switches_strategies():
    # Gray is the switch-provoking profile: peer-gap evidence is seen by
    # both engines, so the serving primary reaches a hot-standby regime.
    rows = E.exp_policy_comparison(profiles=["gray"], seeds=1)
    by_policy = {row["policy"]: row for row in rows}
    assert by_policy["adaptive"]["strategy_switches"] > 0
    assert all(
        row["strategy_switches"] == 0
        for name, row in by_policy.items()
        if name != "adaptive"
    )


def test_s3_check_passes_on_dominant_adaptive_and_fails_otherwise():
    from benchmarks.test_bench_experiments import check_policy_comparison

    def row(policy, mean, spurious):
        return {
            "profile": "mixed",
            "policy": policy,
            "mean_recovery_ms": mean,
            "spurious_failovers": spurious,
        }

    check_policy_comparison([row("static-default", 150.0, 2), row("adaptive", 100.0, 0)])
    with pytest.raises(AssertionError, match="not below"):
        check_policy_comparison([row("static-default", 90.0, 2), row("adaptive", 100.0, 0)])
    with pytest.raises(AssertionError, match="spurious"):
        check_policy_comparison([row("static-default", 150.0, 0), row("adaptive", 100.0, 1)])
    with pytest.raises(AssertionError, match="no adaptive row for profile 'mixed'"):
        check_policy_comparison([row("static-default", 150.0, 0)])
