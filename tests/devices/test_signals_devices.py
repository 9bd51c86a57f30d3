"""Unit tests for signal models and field devices."""

import random

import pytest

from repro.devices.device import Actuator, Sensor
from repro.devices.signals import Constant, RandomWalk, Sine, Step


def rng():
    return random.Random(0)


def test_constant():
    assert Constant(5.0).sample(123.0, rng()) == 5.0


def test_sine_period_and_offset():
    signal = Sine(offset=10.0, amplitude=2.0, period=100.0)
    r = rng()
    assert signal.sample(0.0, r) == pytest.approx(10.0)
    assert signal.sample(25.0, r) == pytest.approx(12.0)
    assert signal.sample(75.0, r) == pytest.approx(8.0)


def test_sine_invalid_period():
    with pytest.raises(ValueError):
        Sine(period=0.0)


def test_step():
    signal = Step(before=1.0, after=2.0, at_time=50.0)
    r = rng()
    assert signal.sample(49.9, r) == 1.0
    assert signal.sample(50.0, r) == 2.0


def test_random_walk_respects_bounds_and_reverts():
    signal = RandomWalk(start=0.0, step=1.0, mean=0.0, reversion=0.1, minimum=-5.0, maximum=5.0)
    r = rng()
    values = [signal.sample(float(t), r) for t in range(500)]
    assert all(-5.0 <= v <= 5.0 for v in values)
    # Mean reversion keeps the long-run average near the mean.
    assert abs(sum(values[100:]) / len(values[100:])) < 3.0


def test_sensor_reads_signal_with_noise():
    sensor = Sensor("s", Constant(10.0), noise=0.5)
    value = sensor.read(0.0, rng())
    assert 7.0 < value < 13.0
    assert sensor.last_value == value


def test_failed_sensor_raises():
    sensor = Sensor("s", Constant(1.0))
    sensor.fail()
    with pytest.raises(IOError):
        sensor.read(0.0, rng())
    sensor.repair()
    assert sensor.read(0.0, rng()) == 1.0


def test_actuator_holds_command():
    actuator = Actuator("a", initial=0.0)
    actuator.write(3.0)
    actuator.write(4.0)
    assert actuator.commanded == 4.0
    actuator.fail()
    with pytest.raises(IOError):
        actuator.write(5.0)
