"""Campaign.repair: the one way a failed §4 demo node is brought back."""

import pytest

from repro.apps.synthetic import SyntheticStateApp
from repro.core.roles import Role
from repro.faults import BlueScreen, MiddlewareCrash, NodeFailure
from repro.faults.campaign import Campaign
from repro.harness.scenario import build_pair_env
from repro.nt.system import SystemState


def _started_pair(seed: int):
    scenario = build_pair_env(seed=seed, app_factory=lambda: SyntheticStateApp(cold_kb=1, mode="selective"))
    scenario.start()
    scenario.run_for(2_000.0)
    return scenario, Campaign(scenario.kernel, scenario, settle_timeout=20_000.0)


@pytest.mark.parametrize("make_fault", [NodeFailure, BlueScreen], ids=["node-failure", "bluescreen"])
def test_repair_reboots_a_downed_machine_into_backup(make_fault):
    scenario, campaign = _started_pair(seed=111)
    node = scenario.pair.primary_node()
    old_engine = scenario.pair.engines[node]
    assert campaign.run_fault(make_fault(node)).recovered
    boots = scenario.systems[node].boot_count

    campaign.repair(node)
    # The reboot goes through the campaign's injector, so it is traced.
    assert scenario.trace.count(category="fault", event="inject") == 2
    scenario.run_for(10_000.0)

    assert scenario.systems[node].state is SystemState.UP
    assert scenario.systems[node].boot_count == boots + 1
    engine = scenario.pair.engines[node]
    assert engine is not old_engine and engine.alive
    assert engine.role is Role.BACKUP
    assert scenario.pair.is_stable()


def test_repair_reinstalls_a_crashed_middleware_in_place():
    scenario, campaign = _started_pair(seed=112)
    node = scenario.pair.primary_node()
    old_engine = scenario.pair.engines[node]
    assert campaign.run_fault(MiddlewareCrash(node)).recovered
    boots = scenario.systems[node].boot_count

    campaign.repair(node)
    # No reboot: the machine stayed up and a fresh stack is already there.
    assert scenario.systems[node].state is SystemState.UP
    assert scenario.systems[node].boot_count == boots
    assert scenario.pair.engines[node] is not old_engine
    assert scenario.trace.count(category="fault", event="inject") == 1
    scenario.run_for(10_000.0)

    assert scenario.pair.engines[node].role is Role.BACKUP
    assert scenario.pair.is_stable()


def test_repair_of_a_healthy_node_is_a_no_op():
    scenario, campaign = _started_pair(seed=113)
    for node in scenario.pair.node_names:
        engine = scenario.pair.engines[node]
        campaign.repair(node)
        assert scenario.pair.engines[node] is engine
    assert scenario.trace.count(category="fault") == 0
    scenario.run_for(5_000.0)
    assert scenario.pair.is_stable()
