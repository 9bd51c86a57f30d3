"""Integration tests: the four §4 failure demonstrations.

Each reproduces one demo case end to end on the Figure 3 testbed and
asserts the paper's qualitative claim — "the ability of the system to
continue operating in the presence of [the] failure" — plus the
quantitative properties our instrumented build makes checkable: bounded
recovery latency and zero lost telephone events.  The four demos back to
back with repairs are registry experiment D, checked by
``CHECKS["D"]`` in ``test_experiments.py``.
"""

import pytest

from repro.faults import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure
from repro.faults.campaign import Campaign
from repro.harness.scenario import build_demo
from repro.metrics import failover_timing


def run_demo(make_fault, seed=11, warmup=20_000.0, after=15_000.0):
    demo = build_demo(seed=seed)
    demo.start()
    demo.run_for(warmup)
    primary = demo.pair.primary_node()
    fault_time = demo.kernel.now
    campaign = Campaign(demo.kernel, demo, settle_timeout=20_000.0)
    record = campaign.run_fault(make_fault(primary))
    demo.run_for(after)
    return demo, primary, fault_time, record


def assert_no_event_loss(demo):
    app = demo.primary_app()
    assert app is not None
    assert app.events_processed() == demo.history.event_count
    assert app.histogram() == demo.history.histogram()


def test_demo_a_node_failure():
    demo, old_primary, fault_time, record = run_demo(lambda node: NodeFailure(node))
    assert record.recovered
    assert record.switched_over
    new_primary = demo.pair.primary_node()
    timing = failover_timing(demo.trace, fault_time, new_primary)
    assert timing.failover_latency is not None
    assert timing.failover_latency < 2_000.0
    assert_no_event_loss(demo)


def test_demo_b_nt_crash():
    demo, old_primary, fault_time, record = run_demo(lambda node: BlueScreen(node))
    assert record.recovered
    assert record.switched_over
    assert demo.systems[old_primary].state.value == "bluescreen"
    assert_no_event_loss(demo)


def test_demo_c_application_failure():
    demo, old_primary, _fault_time, record = run_demo(lambda node: AppCrash(node, "calltrack"))
    assert record.recovered
    # The default rule restarts locally first: same node keeps primary.
    assert not record.switched_over
    assert demo.pair.primary_node() == old_primary
    assert_no_event_loss(demo)


def test_demo_d_middleware_failure():
    demo, old_primary, fault_time, record = run_demo(lambda node: MiddlewareCrash(node))
    assert record.recovered
    assert record.switched_over
    # The orphaned copy was fail-stopped; only the new primary runs.
    assert demo.pair.running_app_nodes() == [demo.pair.primary_node()]
    assert demo.pair.primary_node() != old_primary
    # Demo (d) has an inherent, bounded loss window: events the old copy
    # processed after its engine died cannot be checkpointed (there is no
    # engine to ship the checkpoint).  The window is one FTIM heartbeat
    # period, so at most a couple of events.
    app = demo.primary_app()
    lost = demo.history.event_count - app.events_processed()
    assert 0 <= lost <= 3


def test_recovered_histogram_matches_ground_truth_exactly():
    """The Call Track state invariant: after any single failover the
    histogram equals the Calling History generator's ground truth."""
    demo, _old, _t, record = run_demo(lambda node: NodeFailure(node), seed=29)
    assert record.recovered
    app = demo.primary_app()
    assert app.histogram() == demo.history.histogram()
    state = app.state()
    kinds = [event.kind for event in demo.history.history]
    assert state["total_calls"] == kinds.count("start")
    assert state["blocked_calls"] == kinds.count("blocked")
