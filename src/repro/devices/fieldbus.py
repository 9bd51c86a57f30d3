"""The industrial automation network segment (Devicenet/Fieldbus).

The fieldbus connects a PLC to its field devices.  It is modelled simply:
a registry of devices plus an up/down state — when the bus is down every
read/write raises, which the PLC turns into BAD-quality points, which the
OPC server then reports to clients.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.devices.device import Actuator, Device, Sensor


class Fieldbus:
    """A fieldbus segment with attached devices."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.up = True
        self.devices: Dict[str, Device] = {}
        # Name-sorted views the PLC scans every period; attach, the only
        # writer of ``devices``, rebuilds them.
        self._sensors: Tuple[Sensor, ...] = ()
        self._actuators: Tuple[Actuator, ...] = ()

    def attach(self, device: Device) -> None:
        """Put a device on the bus (names must be unique)."""
        if device.name in self.devices:
            raise ValueError(f"device {device.name} already on {self.name}")
        self.devices[device.name] = device
        ordered = [self.devices[name] for name in sorted(self.devices)]
        self._sensors = tuple(device for device in ordered if isinstance(device, Sensor))
        self._actuators = tuple(device for device in ordered if isinstance(device, Actuator))

    def device(self, name: str) -> Device:
        """Look up a device."""
        device = self.devices.get(name)
        if device is None:
            raise KeyError(f"no device {name} on {self.name}")
        return device

    def sensors(self) -> Tuple[Sensor, ...]:
        """All attached sensors, sorted by name."""
        return self._sensors

    def actuators(self) -> Tuple[Actuator, ...]:
        """All attached actuators, sorted by name."""
        return self._actuators

    def read_sensor(self, name: str, time: float, rng) -> float:
        """Read through the bus (raises when the bus is down)."""
        if not self.up:
            raise IOError(f"fieldbus {self.name} down")
        device = self.device(name)
        if not isinstance(device, Sensor):
            raise TypeError(f"{name} is not a sensor")
        return device.read(time, rng)

    def write_actuator(self, name: str, value: float) -> None:
        """Write through the bus (raises when the bus is down)."""
        if not self.up:
            raise IOError(f"fieldbus {self.name} down")
        device = self.device(name)
        if not isinstance(device, Actuator):
            raise TypeError(f"{name} is not an actuator")
        device.write(value)

    def fail(self) -> None:
        """Take the bus down (comm failure)."""
        self.up = False

    def repair(self) -> None:
        """Bring the bus back."""
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Fieldbus({self.name}, {state}, devices={len(self.devices)})"
