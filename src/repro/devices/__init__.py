"""Plant-floor device simulation.

Figure 1 of the paper shows PLCs on an industrial automation network
(Devicenet/Fieldbus) reading "sensors, valves and other devices", with the
data surfaced to monitoring PCs through OPC servers.  This package
provides that world:

* :mod:`~repro.devices.signals` — process-variable waveform models.
* :mod:`~repro.devices.device` — sensors and actuators.
* :mod:`~repro.devices.fieldbus` — the industrial network segment.
* :mod:`~repro.devices.plc` — scan-loop PLC plus the PLC→OPC bridge.
* :mod:`~repro.devices.telephone` — the §4 demo's small-office telephone
  system simulator (5 lines, 10 callers).
"""

from repro.devices.signals import Constant, RandomWalk, Sine, Step, SignalModel
from repro.devices.device import Actuator, Device, Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.telephone import CallEvent, TelephoneSystem

__all__ = [
    "Actuator",
    "CallEvent",
    "Constant",
    "Device",
    "Fieldbus",
    "PLC",
    "PlcOpcBridge",
    "RandomWalk",
    "Sensor",
    "SignalModel",
    "Sine",
    "Step",
    "TelephoneSystem",
]
