"""Field devices: sensors and actuators."""

from __future__ import annotations

from typing import Optional

from repro.devices.signals import SignalModel


class Device:
    """Base field device."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.healthy = True

    def fail(self) -> None:
        """Put the device into a failed state (reads go bad)."""
        self.healthy = False

    def repair(self) -> None:
        """Restore the device."""
        self.healthy = True

    def __repr__(self) -> str:
        state = "ok" if self.healthy else "failed"
        return f"{type(self).__name__}({self.name}, {state})"


class Sensor(Device):
    """An analogue input sampling a :class:`SignalModel`."""

    def __init__(self, name: str, signal: SignalModel, noise: float = 0.0) -> None:
        super().__init__(name)
        self.signal = signal
        self.noise = noise
        self.last_value: Optional[float] = None

    def read(self, time: float, rng) -> float:
        """Sample the process variable (raises if failed)."""
        if not self.healthy:
            raise IOError(f"sensor {self.name} failed")
        value = self.signal.sample(time, rng)
        if self.noise > 0:
            value += rng.gauss(0.0, self.noise)
        self.last_value = value
        return value


class Actuator(Device):
    """An analogue output holding the last commanded value."""

    def __init__(self, name: str, initial: float = 0.0) -> None:
        super().__init__(name)
        self.commanded = initial

    def write(self, value: float) -> None:
        """Command a new output (raises if failed)."""
        if not self.healthy:
            raise IOError(f"actuator {self.name} failed")
        self.commanded = float(value)
