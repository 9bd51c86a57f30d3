"""Unit tests for pair assembly (OfttPair)."""

import ast
from pathlib import Path

import pytest

from repro.apps.synthetic import SyntheticStateApp
from repro.core.roles import Role
from repro.errors import OfttError

from tests.conftest import make_world
from tests.core.util import make_pair_world


def test_pair_requires_exactly_two_systems():
    world = make_world()
    world.add_machine("only")
    with pytest.raises(OfttError):
        world.add_pair(("only",), SyntheticStateApp, unit="test")


def test_pair_installs_a_node_when_its_machine_boots():
    world = make_world()
    world.add_machine("a")
    late = world.add_machine("b", boot=False)
    pair = world.add_pair(("a", "b"), SyntheticStateApp, unit="test")
    pair.start()
    assert list(pair.engines) == ["a"]
    assert pair.primary_node() is None and pair.backup_node() is None
    late.boot()
    world.run_for(late.boot_time + late.boot_jitter)
    assert list(pair.engines) == ["a", "b"]
    pair.settle()
    # Both engines negotiated, so the late node's engine was started.
    assert {pair.primary_node(), pair.backup_node()} == {"a", "b"}
    # The hook is one-shot: a later reboot does not rebuild the stack.
    engine = pair.engines["b"]
    late.power_off()
    late.reboot()
    world.run_for(late.boot_time + late.boot_jitter)
    assert late.is_up and pair.engines["b"] is engine


def test_only_the_pair_builds_node_stacks():
    """Every NodeContext and OfttEngine is constructed in core/cluster.py."""
    root = Path(__file__).resolve().parents[2]
    sites = []
    for top in ("src", "tests", "examples", "e2ebench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("NodeContext", "OfttEngine"):
                        sites.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    assert sites, "the scan found no construction at all"
    assert all(site.startswith("src/repro/core/cluster.py:") for site in sites), sites


def test_settle_reaches_stable_state():
    world = make_pair_world()
    world.pair.start()
    settled_at = world.pair.settle()
    assert world.pair.is_stable()
    assert settled_at < 5_000.0


def test_settle_times_out_when_unstable():
    world = make_pair_world()
    # Never started: can't stabilise.
    with pytest.raises(OfttError):
        world.pair.settle()


def test_queries():
    world = make_pair_world()
    world.start()
    primary = world.pair.primary_node()
    backup = world.pair.backup_node()
    assert {primary, backup} == {"alpha", "beta"}
    assert world.pair.running_app_nodes() == [primary]
    assert world.pair.engines[primary].role.value == "primary"
    assert world.pair.apps[primary].running


def test_dual_primary_query_names_both_nodes():
    world = make_pair_world()
    world.start()
    backup = world.backup
    world.pair.engines[backup].negotiator.role = Role.PRIMARY  # both live engines now PRIMARY
    with pytest.raises(OfttError) as error:
        world.pair.primary_node()
    assert str(error.value) == "dual primary: ['alpha', 'beta']"
    assert world.pair.is_stable() is False


def test_multi_app_pair_runs_all_apps_on_primary():
    world = make_pair_world(
        app_factory=lambda: [
            SyntheticStateApp(cold_kb=1, mode="selective"),
            _SecondApp(),
        ]
    )
    world.start()
    primary = world.primary
    apps = world.pair.all_apps[primary]
    assert len(apps) == 2
    assert all(app.running for app in apps)
    backup_apps = world.pair.all_apps[world.backup]
    assert not any(app.running for app in backup_apps)


def test_multi_app_failover_moves_both():
    world = make_pair_world(
        app_factory=lambda: [
            SyntheticStateApp(cold_kb=1, mode="selective"),
            _SecondApp(),
        ]
    )
    world.start()
    old_primary = world.primary
    world.run_for(3_000.0)
    world.systems[old_primary].power_off()
    world.run_for(3_000.0)
    new_primary = world.primary
    assert new_primary != old_primary
    assert all(app.running for app in world.pair.all_apps[new_primary])


def test_reinstall_node_rejoins_as_backup():
    world = make_pair_world()
    world.start()
    world.run_for(2_000.0)
    victim = world.primary
    world.systems[victim].power_off()
    world.run_for(2_000.0)
    world.systems[victim].reboot()
    world.run_for(2_000.0)
    world.pair.reinstall_node(victim)
    world.run_for(3_000.0)
    assert world.pair.engines[victim].role.value == "backup"
    assert world.pair.is_stable()
    # Checkpoints flow to the rejoined backup again.
    world.run_for(3_000.0)
    assert world.pair.engines[victim].peer_store.latest("synthetic") is not None


def test_reinstall_requires_up_machine():
    world = make_pair_world()
    world.start()
    victim = world.primary
    world.systems[victim].power_off()
    with pytest.raises(OfttError):
        world.pair.reinstall_node(victim)


class _SecondApp(SyntheticStateApp):
    """A second distinct managed application for multi-app tests."""

    name = "second"

    def __init__(self):
        super().__init__(cold_kb=1, mode="selective")
