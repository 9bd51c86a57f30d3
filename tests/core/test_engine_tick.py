"""The engine's heartbeat timers: one tick per period, or two timers.

With ``heartbeat_period == PEER_HEARTBEAT_PERIOD`` and an unskewed clock
the engine arms one timer per period, and each tick runs the heartbeat
sweep directly before the peer heartbeat.  Unequal periods, or a
``ClockSkew`` that moves the clock scale off 1, give the sweep and the
heartbeat a timer each (the skew for good).
"""

from __future__ import annotations

import pytest

from repro.core.config import OfttConfig
from repro.faults.faultlib import ClockSkew

from tests.core.util import make_pair_world


def started_world(config=None):
    world = make_pair_world(config=config)
    world.start()
    world.run_for(3_000.0)
    return world


def record_schedules(monkeypatch, kernel):
    """(callback name, callback owner) of every call scheduled from now on."""
    calls = []
    schedule = kernel.schedule

    def recording(delay, callback, *args):
        calls.append((getattr(callback, "__name__", ""), getattr(callback, "__self__", None)))
        return schedule(delay, callback, *args)

    monkeypatch.setattr(kernel, "schedule", recording)
    return calls


def record_sweeps_and_beats(monkeypatch, engine):
    """(time, "sweep" | "beat") of every sweep and peer heartbeat of *engine*."""
    log = []
    kernel = engine.kernel
    sweep, beat = engine.monitor.sweep, engine._beat

    def logged_sweep():
        log.append((kernel.now, "sweep"))
        sweep()

    def logged_beat():
        log.append((kernel.now, "beat"))
        beat()

    monkeypatch.setattr(engine.monitor, "sweep", logged_sweep)
    monkeypatch.setattr(engine, "_beat", logged_beat)
    return log


def times_of(log, what):
    return [time for time, kind in log if kind == what]


def gaps(times):
    return [round(later - earlier, 9) for earlier, later in zip(times, times[1:])]


def test_equal_periods_arm_one_timer_per_engine_per_period(monkeypatch):
    world = started_world()
    engines = world.pair.engines
    calls = record_schedules(monkeypatch, world.kernel)
    logs = {node: record_sweeps_and_beats(monkeypatch, engine) for node, engine in engines.items()}
    world.run_for(1_000.0)
    for node, engine in engines.items():
        owned = [name for name, owner in calls if owner is engine or owner is engine.monitor]
        assert owned.count("_tick") == 10
        assert "_sweep" not in owned and "_peer_heartbeat_loop" not in owned
        assert engine._hb_timer[0] == engine._tick
        assert engine.monitor._timer is None
        # Each tick: the sweep, then the heartbeat, at the same instant.
        log = logs[node]
        assert len(log) == 20
        for (sweep_at, first), (beat_at, second) in zip(log[::2], log[1::2]):
            assert (first, second) == ("sweep", "beat")
            assert beat_at == sweep_at
        assert set(gaps(times_of(log, "sweep"))) == {100.0}


def test_clock_skew_splits_the_timers_for_good(monkeypatch):
    world = started_world()
    engine = world.pair.engines["alpha"]
    other = world.pair.engines["beta"]
    log = record_sweeps_and_beats(monkeypatch, engine)
    world.run_for(50.0)  # mid-period
    ClockSkew("alpha", 1.5).apply(world)
    world.run_for(1_500.0)
    # The heartbeat follows the scaled period; the sweep stays at
    # heartbeat_period on the monitor's own timer.
    assert set(gaps(times_of(log, "beat"))[1:]) == {150.0}
    assert set(gaps(times_of(log, "sweep"))) == {100.0}
    assert engine._hb_timer[0] == engine._peer_heartbeat_loop
    assert engine.monitor._timer is not None and engine.monitor._timer[0] == engine.monitor._sweep
    # The unskewed peer keeps its one tick.
    assert other._hb_timer[0] == other._tick and other.monitor._timer is None

    # Repairing the clock restores the period, not the shared timer.
    ClockSkew("alpha", 1.0).apply(world)
    log.clear()
    calls = record_schedules(monkeypatch, world.kernel)
    world.run_for(1_000.0)
    assert set(gaps(times_of(log, "beat"))[1:]) == {100.0}
    assert set(gaps(times_of(log, "sweep"))) == {100.0}
    owned = [name for name, owner in calls if owner is engine or owner is engine.monitor]
    assert "_tick" not in owned
    assert owned.count("_sweep") == 10 and owned.count("_peer_heartbeat_loop") == 10
    assert engine._hb_timer[0] == engine._peer_heartbeat_loop


def test_unequal_periods_keep_two_timers(monkeypatch):
    config = OfttConfig(heartbeat_period=50.0)
    world = started_world(config)
    calls = record_schedules(monkeypatch, world.kernel)
    world.run_for(1_000.0)
    for engine in world.pair.engines.values():
        owned = [name for name, owner in calls if owner is engine or owner is engine.monitor]
        assert "_tick" not in owned
        assert owned.count("_sweep") == 20 and owned.count("_peer_heartbeat_loop") == 10
        assert engine._hb_timer[0] == engine._peer_heartbeat_loop
        assert engine.monitor._timer[0] == engine.monitor._sweep


@pytest.mark.parametrize("skewed", [False, True], ids=["tick", "split"])
def test_engine_exit_cancels_every_heartbeat_timer(skewed):
    world = started_world()
    engine = world.pair.engines[world.backup]
    if skewed:
        ClockSkew(engine.node_name, 2.0).apply(world)
        world.run_for(500.0)
        assert engine.monitor._timer is not None
    hb_timer, sweep_timer = engine._hb_timer, engine.monitor._timer
    engine.shutdown()
    assert engine._hb_timer is None and engine.monitor._timer is None
    assert hb_timer[0] is None
    assert sweep_timer is None or sweep_timer[0] is None
