"""Programmable Logic Controller and the PLC→OPC bridge.

"A PLC interfaces with various types of input/output devices (such as
sensors, valves), reads inputs, processes data, and generates
corresponding control outputs.  In the meantime, data are sent to the PC
where they will be further processed" (§1).

:class:`PLC` runs a classic scan loop on the simulation kernel: read the
input image from the fieldbus, run user logic, write the output image.
:class:`PlcOpcBridge` is the "device driver" inside an OPC server: it
polls the PLC's IO image and pushes values (with quality) into the
server's namespace.

Both loops are plain kernel timers, as the engine's heartbeat loop is:
``start`` arms the first tick at the current time, each tick re-arms
itself one period later while the device runs, and ``stop`` cancels the
armed tick.  Ticks fall at the times, and in the order, of a process
sleeping one period between them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.devices.fieldbus import Fieldbus
from repro.opc.server import OpcServer
from repro.opc.types import BAD_DEVICE_FAILURE, GOOD, Quality
from repro.simnet.kernel import ScheduleHandle, SimKernel

# User logic: fn(inputs, outputs, time) mutates the outputs dict.
ScanLogic = Callable[[Dict[str, float], Dict[str, float], float], None]


class PLC:
    """A scan-loop PLC."""

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        fieldbus: Fieldbus,
        rng,
        scan_period: float = 50.0,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.fieldbus = fieldbus
        self.rng = rng
        self.scan_period = scan_period
        self.inputs: Dict[str, float] = {}
        self.input_quality: Dict[str, Quality] = {}
        self.outputs: Dict[str, float] = {}
        self.logic: List[ScanLogic] = []
        self.running = False
        self._timer: Optional[ScheduleHandle] = None

    def add_logic(self, logic: ScanLogic) -> None:
        """Append a rung of user logic to the scan."""
        self.logic.append(logic)

    def map_output(self, point: str) -> None:
        """Declare an output point (named after its actuator), initially 0."""
        self.outputs[point] = 0.0

    # -- scan loop -----------------------------------------------------------

    def start(self) -> None:
        """Begin scanning; the first scan runs at the current time."""
        if self.running:
            return
        self.running = True
        if self._timer is not None:
            self.kernel.cancel(self._timer)
        self._timer = self.kernel.schedule(0.0, self._scan_tick)

    def stop(self) -> None:
        """Halt scanning (PLC fault or shutdown)."""
        self.running = False
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _scan_tick(self) -> None:
        self._timer = None
        self.scan_once()
        # A rung may have stopped the PLC, or stopped and restarted it
        # (which armed a fresh first tick): re-arm only the loop still owned.
        if self.running and self._timer is None:
            self._timer = self.kernel.schedule(self.scan_period, self._scan_tick)

    def scan_once(self) -> None:
        """One full input-logic-output scan."""
        now = self.kernel.now
        fieldbus = self.fieldbus
        read_sensor = fieldbus.read_sensor
        rng = self.rng
        inputs = self.inputs
        input_quality = self.input_quality
        outputs = self.outputs
        # Input scan.
        for sensor in fieldbus.sensors():
            name = sensor.name
            try:
                inputs[name] = read_sensor(name, now, rng)
                input_quality[name] = GOOD
            except IOError:
                input_quality[name] = BAD_DEVICE_FAILURE
        # Logic.  Rungs are added while the plant is built, never per
        # event, so the list holds a handful of fixed entries.
        for rung in self.logic:  # oftt-lint: ok[hot-linear-scan]
            rung(inputs, outputs, now)
        # Output scan.
        write_actuator = fieldbus.write_actuator
        for actuator in fieldbus.actuators():
            name = actuator.name
            if name in outputs:
                try:
                    write_actuator(name, outputs[name])
                except IOError:
                    pass  # surfaced via input quality on the next scan

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"PLC({self.name}, {state})"


class PlcOpcBridge:
    """Feeds a PLC's IO image into an OPC server's namespace.

    Items are named ``<plc>.<point>``; input quality flows through.  This
    is the "device interface" role of the OPC Server App in Figure 2.
    """

    def __init__(self, kernel: SimKernel, plc: PLC, server: OpcServer, poll_period: float = 100.0) -> None:
        self.kernel = kernel
        self.plc = plc
        self.server = server
        self.poll_period = poll_period
        self.running = False
        self._timer: Optional[ScheduleHandle] = None
        #: Point -> item id, for every point already defined in the namespace.
        self._item_ids: Dict[str, str] = {}

    def item_id(self, point: str) -> str:
        """OPC item id for a PLC point."""
        return f"{self.plc.name}.{point}"

    def start(self) -> None:
        """Begin polling the PLC image; the first poll runs at the current time."""
        if self.running:
            return
        self.running = True
        if self._timer is not None:
            self.kernel.cancel(self._timer)
        self._timer = self.kernel.schedule(0.0, self._poll_tick)

    def stop(self) -> None:
        """Stop polling."""
        self.running = False
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _poll_tick(self) -> None:
        self._timer = None
        self.poll_once()
        if self.running and self._timer is None:
            self._timer = self.kernel.schedule(self.poll_period, self._poll_tick)

    def poll_once(self) -> None:
        """Copy the current IO image into the OPC namespace."""
        plc = self.plc
        input_quality = plc.input_quality
        publish = self._publish
        for point, value in sorted(plc.inputs.items()):
            publish(point, float(value), input_quality.get(point, GOOD), False)
        for point, value in sorted(plc.outputs.items()):
            publish(point, float(value), GOOD, True)

    def _publish(self, point: str, value: float, quality: Quality, writable: bool) -> None:
        item_id = self._item_ids.get(point)
        if item_id is None:
            item_id = self._item_ids[point] = self.item_id(point)
            namespace = self.server.namespace
            if not namespace.exists(item_id):
                namespace.define_simple(item_id, value, access="read_write" if writable else "read")
                if writable:
                    # Operator writes land in the PLC output image (user
                    # logic may override them on the next scan, as on a
                    # real PLC).
                    namespace.on_write(
                        item_id, lambda _item, v, p=point: self.plc.outputs.__setitem__(p, float(v))
                    )
        self.server.update_item(item_id, value, quality)

    def __repr__(self) -> str:
        return f"PlcOpcBridge({self.plc.name} -> {self.server.name})"
