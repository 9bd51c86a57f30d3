"""Unit tests for the SCADA monitor app and the synthetic state app."""

import operator

import pytest

from repro.apps.scada import STATE_VARS, AlarmRule, ScadaMonitorApp
from repro.apps.synthetic import SyntheticStateApp
from repro.harness.scenario import build_remote_monitoring

from tests.core.util import make_pair_world
from tests.nt.test_memory import is_record, mutables, tuples


def test_scada_tracks_latest_values_and_trends():
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    scenario.run_for(10_000.0)
    app = scenario.primary_app()
    state = app.state()
    assert "plc1.temp" in state["latest"]
    assert len(state["trend"]["plc1.temp"]) > 5
    assert app.updates_seen() > 20


def test_scada_trend_buffers_bounded():
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    scenario.run_for(60_000.0)
    app = scenario.primary_app()
    for tail in app.state()["trend"].values():
        assert len(tail) <= app.trend_depth


def test_scada_alarms_fire_above_limit():
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    # The temp sine (offset 60, amplitude 25) exceeds the 80.0 limit each
    # cycle (period 20 s): run a few cycles.
    scenario.run_for(60_000.0)
    app = scenario.primary_app()
    assert app.alarm_count("plc1.temp") > 0
    log = app.state()["alarm_log"]
    assert all(entry[1] == "plc1.temp" and entry[2] > 80.0 for entry in log)


def test_scada_control_write_reaches_actuator():
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    scenario.run_for(60_000.0)
    app = scenario.primary_app()
    assert app.state()["writes_issued"] > 0


def _shares_records_only(copied, source):
    """Whether *copied* holds *source*'s tuples, position by position, and
    none of its lists or dicts."""
    copied_records, source_records = tuples(copied, []), tuples(source, [])
    return (
        len(copied_records) == len(source_records)
        and all(map(operator.is_, copied_records, source_records))
        and not {id(item) for item in mutables(copied, [])} & {id(item) for item in mutables(source, [])}
    )


def _state_of(image):
    """An image's SCADA variables in :meth:`ScadaMonitorApp.state` order."""
    return {var: image["globals"][var] for var in STATE_VARS}


def test_scada_checkpoints_share_the_records_and_copy_their_containers():
    scenario = build_remote_monitoring(seed=2)
    scenario.start()
    scenario.run_for(20_000.0)
    primary, backup = scenario.pair.primary_node(), scenario.pair.backup_node()
    app = scenario.pair.apps[primary]
    state = app.state()
    points = [point for tail in state["trend"].values() for point in tail]
    readings = list(state["latest"].values())
    assert points and readings and state["alarm_log"]
    assert all(map(is_record, points + readings + state["alarm_log"]))

    # A checkpoint taken now (the OFTTSave path) is the latest local image.
    app.api.ftim.TakeCheckpoint()
    image = scenario.pair.engines[primary].latest_local_image(app.name)
    assert _shares_records_only(state, _state_of(image))

    # The relaunched copy restores from the peer image through the same copy.
    survivor = scenario.pair.apps[backup]
    survivor_engine = scenario.pair.engines[backup]
    launch = survivor.launch
    launches = []

    def recording_launch(image):
        process = launch(image)
        peer_image = survivor_engine.latest_peer_image(survivor.name)
        launches.append((image is peer_image, _shares_records_only(survivor.state(), _state_of(image))))
        return process

    survivor.launch = recording_launch
    scenario.systems[primary].power_off()
    scenario.run_for(5_000.0)
    assert scenario.pair.primary_node() == backup
    assert launches == [(True, True)]


def test_scada_alarm_rule_dataclass():
    rule = AlarmRule("item", high_limit=10.0, control_write=("out", 1.0))
    assert rule.control_write == ("out", 1.0)


# -- synthetic app ------------------------------------------------------------------


def test_synthetic_modes_validated():
    with pytest.raises(ValueError):
        SyntheticStateApp(mode="bogus")


def test_synthetic_ticks_and_state_restore():
    world = make_pair_world(app_factory=lambda: SyntheticStateApp(cold_kb=2, mode="full", tick_period=50.0))
    world.start()
    world.run_for(2_000.0)
    app = world.pair.apps[world.primary]
    assert app.ticks() >= 30
    space = app.process.address_space
    assert space.read("hot_00") == app.ticks()
    assert space.read("cold_0000") == "x" * 1024


def test_synthetic_incremental_mode_sets_ftim_flag():
    world = make_pair_world(app_factory=lambda: SyntheticStateApp(cold_kb=1, mode="incremental"))
    world.start()
    app = world.pair.apps[world.primary]
    assert app.api.ftim.incremental
    assert not app.api.ftim.selective


def test_synthetic_selective_mode_designates_hot_vars():
    world = make_pair_world(app_factory=lambda: SyntheticStateApp(cold_kb=1, mode="selective", hot_vars=3))
    world.start()
    app = world.pair.apps[world.primary]
    checkpoint = app.api.ftim.capture()
    assert set(checkpoint.image["globals"]) == {"hot_00", "hot_01", "hot_02", "ticks"}
