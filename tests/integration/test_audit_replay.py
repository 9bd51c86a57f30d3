"""Audit-replay tests: reconciling recovered state with ground truth.

The Calling History generator (Table 1) is the authoritative record; its
``replay_into`` fills any gap a failover left in the recovered Call Track
state.  After replay the application must match ground truth exactly —
the reconciliation an operator would run after an incident.
"""

from repro.faults import MiddlewareCrash, NodeFailure
from repro.faults.campaign import Campaign
from repro.harness.scenario import build_demo


def test_replay_fills_demo_d_loss_window():
    """Demo (d) can lose a bounded number of events; replay recovers
    them and the histogram reconciles exactly."""
    demo = build_demo(seed=91)
    demo.start()
    demo.run_for(20_000.0)
    campaign = Campaign(demo.kernel, demo, settle_timeout=20_000.0)
    campaign.run_fault(MiddlewareCrash(demo.pair.primary_node()))
    demo.run_for(10_000.0)
    demo.telephone.stop()  # freeze the workload for the audit
    demo.run_for(2_000.0)  # drain in-flight queue deliveries

    app = demo.primary_app()
    replayed = demo.history.replay_into(app)
    assert replayed <= 3  # only the loss window needed filling
    assert app.histogram() == demo.history.histogram()
    state = app.state()
    kinds = [event.kind for event in demo.history.history]
    assert state["total_calls"] == kinds.count("start")
    assert state["blocked_calls"] == kinds.count("blocked")
    assert state["events_processed"] == demo.history.event_count


def test_replay_into_healthy_app_is_a_noop():
    demo = build_demo(seed=92)
    demo.start()
    demo.run_for(20_000.0)
    demo.telephone.stop()
    demo.run_for(2_000.0)
    app = demo.primary_app()
    processed_before = app.events_processed()
    replayed = demo.history.replay_into(app)
    assert replayed == 0  # everything already applied
    assert app.events_processed() == processed_before


def test_replay_after_node_failover_reconciles():
    demo = build_demo(seed=93)
    demo.start()
    demo.run_for(20_000.0)
    campaign = Campaign(demo.kernel, demo, settle_timeout=20_000.0)
    campaign.run_fault(NodeFailure(demo.pair.primary_node()))
    demo.run_for(10_000.0)
    demo.telephone.stop()
    demo.run_for(2_000.0)
    app = demo.primary_app()
    demo.history.replay_into(app)
    assert app.histogram() == demo.history.histogram()
