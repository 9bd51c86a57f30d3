"""Headline benchmark: availability over a sustained fault campaign.

Not a single paper artifact but the quantity the whole §4 demonstration
argues for: with OFTT, a monitoring system keeps delivering service
through an arbitrary mix of the demonstrated failures.  This harness runs
the Figure 3 testbed through repeated rounds of all four §4 faults (with
repairs) while sampling service state, and reports availability, total
downtime and per-fault recovery latencies.
"""

from repro.faults.campaign import Campaign
from repro.harness.scenario import DEMO_FAULTS, build_demo
from repro.metrics import AvailabilitySampler, summarize

from benchmarks.conftest import print_result


def run_campaign(seed: int = 71, rounds: int = 3):
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(10_000.0)
    campaign = Campaign(demo.kernel, demo, settle_timeout=30_000.0)
    sampler = AvailabilitySampler()

    def sampled_run(duration):
        for _ in range(int(duration / 100.0)):
            demo.run_for(100.0)
            sampler.sample(demo.kernel.now, demo.pair.is_stable())

    for _round in range(rounds):
        for make_fault in DEMO_FAULTS:
            target = demo.pair.primary_node()
            campaign.run_fault(make_fault(target))
            campaign.repair(target)
            sampled_run(10_000.0)

    latencies = [latency for _fault, latency in campaign.latencies()]
    app = demo.primary_app()
    # Downtime = the recovery window of every fault (the sampler only
    # observes the healthy stretches, so compute this exactly).
    downtime = sum(latencies)
    availability = 1.0 - downtime / demo.kernel.now
    return {
        "faults_injected": len(campaign.records),
        "all_recovered": campaign.all_recovered(),
        "availability": round(availability, 4),
        "total_downtime_ms": round(downtime, 1),
        "recovery_latency_mean_ms": round(summarize(latencies)["mean"], 1),
        "recovery_latency_max_ms": round(summarize(latencies)["max"], 1),
        "events_generated": demo.history.event_count,
        "events_tracked": app.events_processed() if app else 0,
        "campaign_sim_time_ms": round(demo.kernel.now, 0),
    }


def test_bench_availability_campaign(benchmark):
    result = benchmark.pedantic(lambda: run_campaign(seed=71, rounds=3), rounds=1, iterations=1)
    print_result("Availability: 12 mixed §4 faults with repairs (Figure 3 testbed)", result)
    assert result["all_recovered"]
    assert result["availability"] > 0.95
    assert result["events_generated"] - result["events_tracked"] <= 3 * 3  # demo-d windows only
