"""Retry backoff tests: delay math, determinism, and the partition regression."""

import pytest

from repro.core import cluster
from repro.errors import MsqError
from repro.msq.manager import QueueManager

from tests.conftest import make_world
from tests.core.util import make_pair_world


def make_sender(world, **kwargs):
    return QueueManager(world.kernel, world.network, world.network.nodes["sender"], **kwargs)


def make_pair_of_nodes(seed=0):
    world = make_world(seed=seed)
    for name in ("sender", "receiver"):
        world.add_machine(name)
    return world


# ---------------------------------------------------------------------------
# Delay math


def test_capped_exponential_delays():
    world = make_pair_of_nodes()
    sender = make_sender(
        world, retry_interval=250.0, backoff_factor=2.0, max_retry_interval=2_000.0
    )
    delays = [sender._retry_delay(attempt) for attempt in range(1, 7)]
    assert delays == [250.0, 500.0, 1_000.0, 2_000.0, 2_000.0, 2_000.0]


def test_backoff_factor_one_reproduces_fixed_cadence():
    world = make_pair_of_nodes()
    sender = make_sender(world, retry_interval=250.0, backoff_factor=1.0)
    assert [sender._retry_delay(attempt) for attempt in (1, 5, 50)] == [250.0] * 3


def test_jitter_is_bounded_and_seed_deterministic():
    def delays_for(seed):
        world = make_pair_of_nodes(seed=seed)
        sender = make_sender(
            world,
            retry_interval=250.0,
            backoff_factor=2.0,
            max_retry_interval=2_000.0,
            retry_jitter=50.0,
        )
        return [sender._retry_delay(attempt) for attempt in range(1, 6)]

    first, second = delays_for(7), delays_for(7)
    assert first == second
    assert first != delays_for(8)
    base = [250.0, 500.0, 1_000.0, 2_000.0, 2_000.0]
    for value, floor in zip(first, base):
        assert floor <= value <= floor + 50.0


def test_constructor_validation():
    world = make_pair_of_nodes()
    with pytest.raises(MsqError):
        make_sender(world, backoff_factor=0.5)
    with pytest.raises(MsqError):
        make_sender(world, retry_jitter=-1.0)
    with pytest.raises(MsqError):
        make_sender(world, retry_interval=500.0, max_retry_interval=250.0)


def test_pair_managers_back_off_and_a_client_manager_keeps_the_fixed_cadence():
    world = make_pair_world()
    for name in ("alpha", "beta"):
        qmgr = world.pair.contexts[name].qmgr
        assert qmgr.retry_interval == cluster.MSQ_RETRY_INTERVAL
        assert qmgr.backoff_factor == cluster.MSQ_RETRY_BACKOFF
        assert qmgr.max_retry_interval == cluster.MSQ_RETRY_MAX_INTERVAL
        assert qmgr.retry_jitter == cluster.MSQ_RETRY_JITTER
        assert qmgr._retry_delay(1) < qmgr._retry_delay(3)
    client = QueueManager(world.kernel, world.network, world.add_machine("client").node)
    assert (client.backoff_factor, client.retry_jitter) == (1.0, 0.0)
    assert [client._retry_delay(attempt) for attempt in (1, 5, 50)] == [client.retry_interval] * 3


# ---------------------------------------------------------------------------
# Regression: sustained partition must not be hammered at a fixed rate.


def transmits_under_partition(backoff_factor, max_retry_interval, jitter=0.0):
    world = make_pair_of_nodes()
    sender = make_sender(
        world,
        retry_interval=250.0,
        backoff_factor=backoff_factor,
        max_retry_interval=max_retry_interval,
        retry_jitter=jitter,
    )
    QueueManager(
        world.kernel, world.network, world.network.nodes["receiver"]
    ).create_queue("inbox")
    world.partitions.split_all(["sender"], ["receiver"])
    sender.send("receiver", "inbox", "stuck")
    world.run_for(30_000.0)
    assert sender.pending_count() == 1  # still parked, not dead-lettered
    (entry,) = sender.outgoing.values()
    return entry.attempts


def test_backoff_sends_far_less_under_sustained_partition():
    fixed = transmits_under_partition(backoff_factor=1.0, max_retry_interval=250.0)
    backed_off = transmits_under_partition(backoff_factor=2.0, max_retry_interval=2_000.0)
    assert fixed >= 100  # ~30s / 250ms of futile wire traffic
    assert backed_off <= fixed / 4
    # Jitter must not change the order of magnitude.
    jittered = transmits_under_partition(
        backoff_factor=2.0, max_retry_interval=2_000.0, jitter=25.0
    )
    assert jittered <= fixed / 4


def test_backed_off_message_still_delivers_after_heal():
    world = make_pair_of_nodes()
    sender = make_sender(
        world, retry_interval=250.0, backoff_factor=2.0, max_retry_interval=2_000.0
    )
    receiver = QueueManager(world.kernel, world.network, world.network.nodes["receiver"])
    receiver.create_queue("inbox")
    world.partitions.split_all(["sender"], ["receiver"])
    sender.send("receiver", "inbox", "late but safe")
    world.run_for(15_000.0)
    world.partitions.heal_all()
    world.run_for(5_000.0)
    assert sender.pending_count() == 0
    assert receiver.open_queue("inbox").receive().body == "late but safe"
