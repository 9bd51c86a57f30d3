"""A SCADA monitoring/control application (Figure 1 workload).

An OPC client that subscribes to plant items on one or more OPC servers,
maintains alarm counters and bounded trend buffers, and optionally writes
a control setpoint when a measured value breaches its limit.  Its state —
alarm history, trend tails, counters — is what operators would lose on a
PC failure, hence the OFTT protection.

Each trend point ``(timestamp, value)``, alarm entry ``(timestamp,
item_id, value)`` and latest reading ``(value, quality, timestamp)`` is
a tuple of scalars that the app never changes once recorded.  The
containers that hold them (each item's trend list, ``alarm_log``,
``latest``, ``alarm_counts``) are mutable and copied into every
checkpoint, but the records are shared with it, as ``copy.deepcopy``
shares them (see :func:`repro.nt.memory.copy_value`).

Unlike :class:`CallTrackApp` (which is fed through the diverter), this
app pulls its inputs through OPC data-change subscriptions, exercising
the DCOM callback path during failovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.com.marshal import ObjRef
from repro.core.api import OfttApi
from repro.core.appdriver import OfttApplication
from repro.nt.memory import copy_variables
from repro.nt.process import NTProcess
from repro.opc.client import OpcClient
from repro.opc.types import OpcValue
from repro.simnet.events import Timeout

STATE_VARS = ("latest", "alarm_counts", "alarm_log", "trend", "updates_seen", "writes_issued")


@dataclass(frozen=True)
class AlarmRule:
    """Alarm (and optional control) rule for one item."""

    item_id: str
    high_limit: float
    #: Optional control response: (item to write, value) on breach.
    control_write: Optional[Tuple[str, float]] = None


class ScadaMonitorApp(OfttApplication):
    """OFTT-protected SCADA monitoring/control OPC client."""

    name = "scada-monitor"
    #: Samples kept per item in the checkpointed trend.
    trend_depth = 50

    def __init__(
        self,
        server_ref: Optional[ObjRef] = None,
        items: Optional[List[str]] = None,
        alarms: Optional[List[AlarmRule]] = None,
        update_rate: float = 200.0,
    ) -> None:
        super().__init__()
        self.server_ref = server_ref
        self.items = list(items or [])
        self.alarms = {rule.item_id: rule for rule in (alarms or [])}
        self.update_rate = update_rate
        self.api: Optional[OfttApi] = None
        self.client: Optional[OpcClient] = None

    # -- lifecycle -------------------------------------------------------------

    def launch(self, image: Optional[Dict[str, Any]]) -> NTProcess:
        context = self.context
        assert context is not None, "install() must run before launch()"
        process = context.system.create_process(self.name)
        self.process = process
        self._init_state(process, image)

        client = OpcClient(context.runtime, f"{self.name}@{context.node_name}", process=process)
        self.client = client

        def main_body(_thread):
            return self._main_loop()

        process.create_thread("main", body=main_body, dynamic=False)
        process.start()

        api = OfttApi(context, self.name, process)
        api.OFTTInitialize(stateful=True)
        api.OFTTSelSave("globals", list(STATE_VARS))
        self.api = api
        self.launch_count += 1
        return process

    def _init_state(self, process: NTProcess, image: Optional[Dict[str, Any]]) -> None:
        space = process.address_space
        defaults: Dict[str, Any] = {
            "latest": {},
            "alarm_counts": {},
            "alarm_log": [],
            "trend": {item: [] for item in self.items},
            "updates_seen": 0,
            "writes_issued": 0,
        }
        # Deep copy: a shallow dict() would alias the checkpoint's nested
        # containers (latest, trend, ...) into live memory, so the running
        # app would mutate the image held by the engine's CheckpointStore.
        restored = copy_variables(image.get("globals", {})) if image else {}
        for var, default in defaults.items():
            space.write(var, restored.get(var, default))

    # -- the main application thread ---------------------------------------------

    def _main_loop(self):
        # Wait for a server reference (co-located server apps publish it
        # at launch), connect with retry, subscribe, then idle; data
        # arrives via the DCOM callback sink.
        while self.server_ref is None:
            yield Timeout(200.0)
        while True:
            try:
                yield from self.client.connect_remote(self.server_ref)
                break
            except Exception:  # noqa: BLE001 - RPC failures, retried
                yield Timeout(1_000.0)
        if self.items:
            # Group names must be unique server-wide; a failover peer (or a
            # restarted copy) registers its own group rather than fighting
            # over the dead client's.
            group_name = f"scada:{self.context.node_name}:{self.launch_count}"
            group = yield from self.client.add_group(group_name, update_rate=self.update_rate)
            yield from group.add_items(self.items)
            group.set_callback(self._on_data_change)
        while True:
            yield Timeout(1_000.0)

    # -- data handling ------------------------------------------------------------

    def _on_data_change(self, _group: str, batch: List[Tuple[int, str, OpcValue]]) -> None:
        if self.process is None or not self.process.alive:
            return
        space = self.process.address_space
        latest = space.read("latest")
        trend = space.read("trend")
        updates = space.read("updates_seen")
        trend_depth = self.trend_depth
        for _handle, item_id, value in batch:
            quality = value.quality
            # ``_value_`` is the member's value without Enum's descriptor.
            latest[item_id] = (value.value, quality._value_, value.timestamp)
            tail = trend.setdefault(item_id, [])
            tail.append((value.timestamp, value.value))
            if len(tail) > trend_depth:
                del tail[: len(tail) - trend_depth]
            updates += 1
            if quality.is_good:
                self._check_alarm(item_id, value)
        space.write("latest", latest)
        space.write("trend", trend)
        space.write("updates_seen", updates)

    def _check_alarm(self, item_id: str, value: OpcValue) -> None:
        rule = self.alarms.get(item_id)
        if rule is None or not isinstance(value.value, (int, float)):
            return
        if value.value <= rule.high_limit:
            return
        space = self.process.address_space
        counts = space.read("alarm_counts")
        counts[item_id] = counts.get(item_id, 0) + 1
        space.write("alarm_counts", counts)
        log = space.read("alarm_log")
        log.append((value.timestamp, item_id, value.value))
        if len(log) > 500:
            del log[: len(log) - 500]
        space.write("alarm_log", log)
        if rule.control_write is not None and self.client is not None:
            target, command = rule.control_write
            # One-way control write; failures surface as RPC results we
            # deliberately ignore here (the PLC logic is the safety net).
            self.process.system.kernel.spawn(
                self._control_write(target, command), name=f"{self.name}:write"
            )

    def _control_write(self, target: str, command: float):
        try:
            yield from self.client.write_items([(target, command)])
            space = self.process.address_space
            space.write("writes_issued", space.read("writes_issued") + 1)
        except Exception:  # noqa: BLE001 - control write lost; alarm persists
            return

    # -- accessors ------------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Snapshot of the tracked state."""
        if self.process is None:
            return {}
        space = self.process.address_space
        return {var: space.read(var) for var in STATE_VARS}

    def alarm_count(self, item_id: str) -> int:
        """Alarms recorded for one item."""
        if self.process is None:
            return 0
        return self.process.address_space.read("alarm_counts").get(item_id, 0)

    def updates_seen(self) -> int:
        """Total data-change updates applied."""
        if self.process is None:
            return 0
        return self.process.address_space.read("updates_seen")
