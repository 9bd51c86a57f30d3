"""OPC groups: subscription units with update rate and deadband.

A client adds items to a group, registers a data-change sink, and receives
batched ``OnDataChange`` notifications no faster than the group's update
rate; analogue changes smaller than the deadband are suppressed.  The sink
is either a local callable (in-proc client) or an
:class:`~repro.com.marshal.ObjRef` to a remote callback object, reached
via a DCOM one-way call.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.com.interfaces import declare_interface
from repro.com.marshal import ObjRef
from repro.com.object import ComObject
from repro.com.hresult import CONNECT_E_NOCONNECTION, OPC_E_INVALIDHANDLE
from repro.errors import OpcError
from repro.opc.types import OpcValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.opc.server import OpcServer

IOPC_GROUP = declare_interface(
    "IOPCGroupStateMgt",
    ("AddItems", "RemoveItems", "SetActive", "SyncRead", "SyncWrite", "SetDataCallback", "GetState"),
)

IOPC_ASYNC_IO = declare_interface("IOPCAsyncIO2", ("AsyncRead", "AsyncWrite"), base=IOPC_GROUP)

IOPC_DATA_CALLBACK = declare_interface(
    "IOPCDataCallback", ("OnDataChange", "OnReadComplete", "OnWriteComplete")
)

# A local sink: callback(group_name, [[client_handle, item_id, wire_value], ...])
LocalSink = Callable[[str, List[List[Any]]], None]


class OpcGroup(ComObject):
    """One subscription group inside an :class:`OpcServer`."""

    IMPLEMENTS = (IOPC_ASYNC_IO,)
    #: Simulated device-read turnaround for async operations.
    ASYNC_LATENCY = 20.0

    #: How often the server pings a remote sink (DCOM-style GC).
    PING_PERIOD = 5_000.0
    #: Consecutive failed pings before the group is collected.
    PING_STRIKES = 2

    def __init__(self, server: "OpcServer", name: str, update_rate: float = 100.0, deadband: float = 0.0) -> None:
        super().__init__()
        self.server = server
        self.name = name
        self.update_rate = update_rate
        self.deadband = deadband  # percent of value span, 0 disables
        self.active = True
        # Handles and transaction ids are scoped to this group instance
        # (clients never mix them across groups), so per-instance counters
        # are safe — and unlike class-level ones they don't carry state
        # between scenarios in a single Python process, which made
        # identical-seed runs hand out different handles.
        self._handle_counter = itertools.count(1)
        self._transaction_counter = itertools.count(1)
        self.items: Dict[int, str] = {}  # client handle -> item id
        self._last_sent: Dict[int, OpcValue] = {}
        self._pending: Dict[int, OpcValue] = {}
        self._sink_local: Optional[LocalSink] = None
        self._sink_remote: Optional[ObjRef] = None
        self._flush_armed = False
        self._ping_strikes = 0
        self._ping_armed = False
        self.collected = False

    # -- item management ---------------------------------------------------------

    def AddItems(self, item_ids: List[str]) -> List[int]:
        """Register items; returns one client handle per item id."""
        handles = []
        for item_id in item_ids:
            self.server.namespace.definition(item_id)  # validate
            handle = next(self._handle_counter)
            self.items[handle] = item_id
            handles.append(handle)
        return handles

    def RemoveItems(self, handles: List[int]) -> None:
        """Drop items by client handle (unknown handles are errors)."""
        for handle in handles:
            if handle not in self.items:
                raise OpcError(f"group {self.name}: unknown handle {handle}", hresult=OPC_E_INVALIDHANDLE)
            del self.items[handle]
            self._last_sent.pop(handle, None)
            self._pending.pop(handle, None)

    def SetActive(self, active: bool) -> None:
        """Enable or disable change notifications."""
        self.active = bool(active)

    def GetState(self) -> dict:
        """Group state snapshot (IOPCGroupStateMgt::GetState)."""
        return {
            "name": self.name,
            "update_rate": self.update_rate,
            "deadband": self.deadband,
            "active": self.active,
            "item_count": len(self.items),
        }

    # -- synchronous access ---------------------------------------------------------

    def SyncRead(self, handles: List[int]) -> List[dict]:
        """Read current cached values for *handles* (wire form)."""
        result = []
        for handle in handles:
            if handle not in self.items:
                raise OpcError(f"group {self.name}: unknown handle {handle}", hresult=OPC_E_INVALIDHANDLE)
            result.append(self.server.namespace.read(self.items[handle]).as_wire())
        return result

    def SyncWrite(self, writes: List[Tuple[int, Any]]) -> None:
        """Write values through to the device hooks."""
        for handle, value in writes:
            if handle not in self.items:
                raise OpcError(f"group {self.name}: unknown handle {handle}", hresult=OPC_E_INVALIDHANDLE)
            self.server.namespace.client_write(self.items[handle], value)

    # -- asynchronous access (IOPCAsyncIO2) ---------------------------------------

    def AsyncRead(self, handles: List[int]) -> int:
        """Start an asynchronous read of *handles*.

        Returns a transaction id immediately; after the simulated device
        turnaround the sink's ``OnReadComplete`` fires with
        ``(group, transaction_id, [(handle, item_id, wire_value), ...])``.
        Requires a data callback to be registered.
        """
        if self._sink_local is None and self._sink_remote is None:
            raise OpcError(f"group {self.name}: AsyncRead without a data callback", hresult=CONNECT_E_NOCONNECTION)
        for handle in handles:
            if handle not in self.items:
                raise OpcError(f"group {self.name}: unknown handle {handle}", hresult=OPC_E_INVALIDHANDLE)
        transaction_id = next(self._transaction_counter)
        self.server.kernel.schedule(self.ASYNC_LATENCY, self._complete_read, list(handles), transaction_id)
        return transaction_id

    def AsyncWrite(self, writes: List[Any]) -> int:
        """Start an asynchronous write; ``OnWriteComplete`` carries the
        transaction id and per-handle success flags."""
        if self._sink_local is None and self._sink_remote is None:
            raise OpcError(f"group {self.name}: AsyncWrite without a data callback", hresult=CONNECT_E_NOCONNECTION)
        transaction_id = next(self._transaction_counter)
        self.server.kernel.schedule(self.ASYNC_LATENCY, self._complete_write, list(writes), transaction_id)
        return transaction_id

    def _complete_read(self, handles: List[int], transaction_id: int) -> None:
        if self.collected:
            return
        batch = []
        for handle in handles:
            item_id = self.items.get(handle)
            if item_id is None:
                continue  # removed while the read was in flight
            batch.append([handle, item_id, self.server.namespace.read(item_id).as_wire()])
        self._dispatch("OnReadComplete", (self.name, transaction_id, batch))

    def _complete_write(self, writes: List[Any], transaction_id: int) -> None:
        if self.collected:
            return
        outcomes = []
        for handle, value in writes:
            item_id = self.items.get(handle)
            if item_id is None:
                outcomes.append([handle, False])
                continue
            try:
                self.server.namespace.client_write(item_id, value)
                outcomes.append([handle, True])
            except OpcError:
                outcomes.append([handle, False])
        self._dispatch("OnWriteComplete", (self.name, transaction_id, outcomes))

    def _dispatch(self, method: str, args: tuple) -> None:
        if self._sink_local is not None:
            sink_owner = getattr(self._sink_local, "__self__", None)
            if sink_owner is not None and hasattr(sink_owner, method):
                getattr(sink_owner, method)(*args)
        elif self._sink_remote is not None:
            self.server.runtime.exporter.invoke_oneway(self._sink_remote, method, args)

    # -- subscriptions -----------------------------------------------------------------

    def SetDataCallback(self, sink: Any) -> None:
        """Attach the data-change sink: a callable (local) or ObjRef (remote).

        Remote sinks are pinged periodically (DCOM-style distributed GC):
        a sink whose hosting process or node has died gets its group
        collected, so orphaned subscriptions from crashed clients do not
        accumulate across failovers.
        """
        if callable(sink):
            self._sink_local = sink
            self._sink_remote = None
        elif isinstance(sink, ObjRef):
            self._sink_remote = sink
            self._sink_local = None
            self._ping_strikes = 0
            self._arm_ping()
        else:
            raise OpcError(f"unsupported callback sink {type(sink).__name__}")

    def clear_callback(self) -> None:
        """Detach any sink."""
        self._sink_local = None
        self._sink_remote = None

    # -- remote-sink liveness (DCOM ping GC) ----------------------------------

    def _arm_ping(self) -> None:
        if self._ping_armed or self.collected:
            return
        self._ping_armed = True
        self.server.kernel.schedule(self.PING_PERIOD, self._ping_sink)

    def _ping_sink(self) -> None:
        self._ping_armed = False
        if self.collected or self._sink_remote is None:
            return
        ping = self.server.runtime.exporter.check_liveness(self._sink_remote)
        ping.add_callback(self._on_ping_result)

    # Ping-GC teardown vs in-flight completions at the same tick is
    # reviewed-benign: _collect -> clear_callback clears the sinks and
    # sets `collected`, and every completion path (_complete_read/
    # _complete_write -> _dispatch, _ping_sink) re-checks both before
    # touching them.  Whichever side the seq tiebreak runs first, the
    # outcome is a valid protocol state and deterministic per seed.
    def _on_ping_result(self, waitable: Any) -> None:  # oftt-lint: ok[ip-race-write-read,ip-race-write-write]
        if self.collected or self._sink_remote is None:
            return
        result = waitable.value
        if result.ok and result.value:
            self._ping_strikes = 0
        else:
            self._ping_strikes += 1
            if self._ping_strikes >= self.PING_STRIKES:
                self._collect()
                return
        self._arm_ping()

    def _collect(self) -> None:
        """The sink is gone: tear this group down server-side."""
        self.collected = True
        self.clear_callback()
        self.server._on_group_collected(self.name)

    def _on_item_update(self, item_id: str, new_value: OpcValue) -> None:
        """Called by the server whenever the namespace cache changes."""
        if not self.active or (self._sink_local is None and self._sink_remote is None):
            return
        # The fan-out walks handles in ascending order.  ``items`` is kept
        # in that order: handles come from a counter and are only ever
        # appended (AddItems) or deleted (RemoveItems), so dict order is
        # handle order and no per-update sort is needed.
        for handle, subscribed_id in self.items.items():
            if subscribed_id != item_id:
                continue
            if self._within_deadband(handle, new_value):
                continue
            self._pending[handle] = new_value
        if self._pending and not self._flush_armed:
            self._flush_armed = True
            self.server.kernel.schedule(self.update_rate, self._flush)

    def _within_deadband(self, handle: int, new_value: OpcValue) -> bool:
        if self.deadband <= 0:
            return False
        last = self._last_sent.get(handle)
        if last is None or last.quality != new_value.quality:
            return False
        if not isinstance(new_value.value, (int, float)) or not isinstance(last.value, (int, float)):
            return new_value.value == last.value
        span = max(abs(last.value), abs(new_value.value), 1e-9)
        return abs(new_value.value - last.value) / span * 100.0 < self.deadband

    def _flush(self) -> None:
        self._flush_armed = False
        if not self._pending:
            return
        # Each entry is built once in its wire form, [handle, item_id,
        # wire value]; a remote sink's batch is marshalled from it as is.
        batch = []
        for handle, value in sorted(self._pending.items()):
            self._last_sent[handle] = value
            batch.append([handle, self.items.get(handle, ""), value.as_wire()])
        self._pending.clear()
        if self._sink_local is not None:
            self._sink_local(self.name, batch)
        elif self._sink_remote is not None:
            self.server.runtime.exporter.invoke_oneway(self._sink_remote, "OnDataChange", (self.name, batch))

    def __repr__(self) -> str:
        return f"OpcGroup({self.name}, items={len(self.items)}, rate={self.update_rate})"
