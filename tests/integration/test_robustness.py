"""Robustness tests: lossy links, full-pair restarts, long campaigns."""

from repro.faults import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure, NodeReboot
from repro.faults.campaign import Campaign
from repro.faults.injector import FaultInjector

from tests.core.util import make_pair_world


def test_checkpointing_tolerates_lossy_pair_link():
    """Checkpoints are fire-and-forget per interval; on a lossy link the
    backup's mirror has gaps but stays monotone and recent enough for a
    failover to succeed with bounded staleness."""
    world = make_pair_world(seed=81)
    world.start()
    world.network.links["lan0"].loss = 0.3
    world.run_for(15_000.0)
    primary = world.primary
    backup = world.backup
    app = world.pair.apps[primary]
    local_seq = world.pair.engines[primary].local_store.latest_sequence("synthetic")
    mirror_seq = world.pair.engines[backup].peer_store.latest_sequence("synthetic")
    assert mirror_seq > 0
    assert local_seq - mirror_seq <= 6  # bounded gap even at 30 % loss
    ticks_before = app.ticks()
    world.systems[primary].power_off()
    world.run_for(5_000.0)
    survivor = world.primary
    assert survivor == backup
    restored = world.pair.apps[survivor].process.address_space.read("ticks")
    # Staleness bounded by (gap + 1) checkpoint periods of progress.
    assert restored >= ticks_before - 7 * 20 - 25


def test_full_pair_outage_and_cold_restart():
    """Both machines die; both are repaired; the pair re-forms from the
    checkpointed state that survived on neither node (fresh start)."""
    world = make_pair_world(seed=82)
    world.start()
    world.run_for(5_000.0)
    injector = FaultInjector(world.kernel, world)
    for name in list(world.pair.node_names):
        injector.inject_now(NodeFailure(name))
    world.run_for(2_000.0)
    assert world.pair.primary_node() is None
    for name in list(world.pair.node_names):
        injector.inject_now(NodeReboot(name, reinstall=True))
    world.run_for(15_000.0)
    assert world.pair.is_stable()
    roles = sorted(world.pair.engines[n].role.value for n in world.pair.node_names)
    assert roles == ["backup", "primary"]


def test_long_mixed_campaign_availability():
    """A long campaign of mixed faults with repairs: overall availability
    stays high and every fault is survived.

    Downtime is each fault's recovery window plus every unstable 100 ms
    service sample after it, over the campaign's whole span.
    """
    world = make_pair_world(seed=83)
    world.start()
    world.run_for(3_000.0)
    started = world.kernel.now
    campaign = Campaign(world.kernel, world, settle_timeout=20_000.0)
    injector = FaultInjector(world.kernel, world)
    stable_samples = []  # one per 100 ms of service

    def sampled_run(duration):
        steps = int(duration / 100.0)
        for _ in range(steps):
            world.run_for(100.0)
            stable_samples.append(world.pair.is_stable())

    fault_makers = [
        lambda n: NodeFailure(n),
        lambda n: AppCrash(n, "synthetic"),
        lambda n: BlueScreen(n),
        lambda n: MiddlewareCrash(n),
        lambda n: AppCrash(n, "synthetic"),
        lambda n: NodeFailure(n),
    ]
    for make_fault in fault_makers:
        target = world.primary
        record = campaign.run_fault(make_fault(target))
        assert record.recovered, record
        # Repair.
        if not world.systems[target].is_up:
            injector.inject_now(NodeReboot(target, reinstall=True))
        elif not world.pair.engines[target].alive:
            world.pair.reinstall_node(target)
        sampled_run(8_000.0)

    assert campaign.all_recovered()
    downtime = sum(record.recovery_latency for record in campaign.records)
    downtime += stable_samples.count(False) * 100.0
    assert 1.0 - downtime / (world.kernel.now - started) > 0.95
    assert downtime < 3_000.0
