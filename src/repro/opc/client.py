"""OPC client helper.

Wraps the difference between an in-proc server (direct COM calls) and a
remote one (DCOM proxies) behind one API.  All potentially-remote
operations are written as generators to be driven with ``yield from``
inside a simulation process; in local mode they return without suspending.

Usage sketch (inside a process generator)::

    client = OpcClient(runtime, "monitor")
    yield from client.connect_remote(server_objref)
    group = yield from client.add_group("fast", update_rate=100.0)
    handles = yield from group.add_items(["plant.line1.temp"])
    group.set_callback(lambda name, batch: ...)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.com.interfaces import declare_interface
from repro.com.marshal import ObjRef
from repro.com.object import ComObject
from repro.com.runtime import ComRuntime
from repro.errors import OpcError, RpcError
from repro.nt.process import NTProcess
from repro.opc.group import IOPC_DATA_CALLBACK, OpcGroup
from repro.opc.server import OpcServer
from repro.opc.types import OpcValue

# callback(group_name, [(handle, item_id, OpcValue), ...])
ChangeCallback = Callable[[str, List[Tuple[int, str, OpcValue]]], None]


class DataCallbackSink(ComObject):
    """The client-side IOPCDataCallback implementation.

    One sink per client; it fans incoming ``OnDataChange`` batches out to
    the per-group Python callbacks.
    """

    IMPLEMENTS = (IOPC_DATA_CALLBACK,)

    def __init__(self) -> None:
        super().__init__()
        self._routes: Dict[str, ChangeCallback] = {}
        self._read_waiters: Dict[Tuple[str, int], Callable] = {}
        self._write_waiters: Dict[Tuple[str, int], Callable] = {}

    def route(self, group_name: str, callback: ChangeCallback) -> None:
        """Register the handler for one group's notifications."""
        self._routes[group_name] = callback

    def await_read(self, group_name: str, transaction_id: int, callback: Callable) -> None:
        """Register a one-shot completion handler for an async read."""
        self._read_waiters[(group_name, transaction_id)] = callback

    def await_write(self, group_name: str, transaction_id: int, callback: Callable) -> None:
        """Register a one-shot completion handler for an async write."""
        self._write_waiters[(group_name, transaction_id)] = callback

    def OnDataChange(self, group_name: str, batch: List[Any]) -> None:
        """DCOM entry point: decode the wire batch and dispatch."""
        callback = self._routes.get(group_name)
        if callback is None:
            return
        decoded = [(handle, item_id, OpcValue.from_wire(wire)) for handle, item_id, wire in batch]
        callback(group_name, decoded)

    def OnReadComplete(self, group_name: str, transaction_id: int, batch: List[Any]) -> None:
        """DCOM entry point: async read finished."""
        callback = self._read_waiters.pop((group_name, transaction_id), None)
        if callback is None:
            return
        decoded = [(handle, item_id, OpcValue.from_wire(wire)) for handle, item_id, wire in batch]
        callback(transaction_id, decoded)

    def OnWriteComplete(self, group_name: str, transaction_id: int, outcomes: List[Any]) -> None:
        """DCOM entry point: async write finished."""
        callback = self._write_waiters.pop((group_name, transaction_id), None)
        if callback is not None:
            callback(transaction_id, [(handle, bool(ok)) for handle, ok in outcomes])


class GroupHandle:
    """Uniform client-side handle to a local or remote OPC group."""

    def __init__(self, client: "OpcClient", name: str, local: Optional[OpcGroup], remote: Optional[ObjRef]) -> None:
        self._client = client
        self.name = name
        self._local = local
        self._remote_proxy = client.runtime.proxy_for(remote) if remote is not None else None
        self.handles: Dict[int, str] = {}

    @property
    def is_remote(self) -> bool:
        """Whether calls travel over DCOM."""
        return self._remote_proxy is not None

    def add_items(self, item_ids: List[str]):
        """Register items; returns (yields) the list of client handles."""
        if self._local is not None:
            handles = self._local.AddItems(item_ids)
        else:
            result = yield self._remote_proxy.AddItems(item_ids)
            handles = result.unwrap()
        for handle, item_id in zip(handles, item_ids):
            self.handles[handle] = item_id
        return handles

    def remove_items(self, handles: List[int]):
        """Unregister items."""
        if self._local is not None:
            self._local.RemoveItems(handles)
        else:
            result = yield self._remote_proxy.RemoveItems(handles)
            result.unwrap()
        for handle in handles:
            self.handles.pop(handle, None)
        return None

    def sync_read(self, handles: List[int]):
        """Read current values; returns a list of :class:`OpcValue`."""
        if self._local is not None:
            wires = self._local.SyncRead(handles)
        else:
            result = yield self._remote_proxy.SyncRead(handles)
            wires = result.unwrap()
        return [OpcValue.from_wire(wire) for wire in wires]

    def sync_write(self, writes: List[Tuple[int, Any]]):
        """Write values through the group."""
        if self._local is not None:
            self._local.SyncWrite(writes)
            return None
        result = yield self._remote_proxy.SyncWrite([list(pair) for pair in writes])
        result.unwrap()
        return None

    def set_callback(self, callback: ChangeCallback) -> None:
        """Subscribe to data changes (synchronous in both modes)."""
        self._client.sink.route(self.name, callback)
        if self._local is not None:
            self._local.SetDataCallback(self._client.sink.OnDataChange)
        else:
            self._client._ensure_sink_exported()
            # One-way registration: fire and forget, like Advise.
            self._remote_proxy.call_oneway("SetDataCallback", self._client.sink_ref)

    def async_read(self, handles: List[int], callback: Callable):
        """Start an async read; *callback(transaction_id, values)* fires
        on completion.  Returns (yields) the transaction id.

        A data callback must be set first (the completion arrives through
        the same sink, as in OPC's IOPCAsyncIO2 contract).
        """
        if self._local is not None:
            transaction_id = self._local.AsyncRead(handles)
        else:
            self._client._ensure_sink_exported()
            result = yield self._remote_proxy.AsyncRead(handles)
            transaction_id = result.unwrap()
        self._client.sink.await_read(self.name, transaction_id, callback)
        return transaction_id

    def async_write(self, writes: List[Tuple[int, Any]], callback: Callable):
        """Start an async write; *callback(transaction_id, outcomes)*
        fires on completion with per-handle success flags."""
        if self._local is not None:
            transaction_id = self._local.AsyncWrite(list(writes))
        else:
            self._client._ensure_sink_exported()
            result = yield self._remote_proxy.AsyncWrite([list(pair) for pair in writes])
            transaction_id = result.unwrap()
        self._client.sink.await_write(self.name, transaction_id, callback)
        return transaction_id

    def set_active(self, active: bool):
        """Enable/disable notifications."""
        if self._local is not None:
            self._local.SetActive(active)
            return None
        result = yield self._remote_proxy.SetActive(active)
        result.unwrap()
        return None

    def __repr__(self) -> str:
        mode = "remote" if self.is_remote else "local"
        return f"GroupHandle({self.name}, {mode}, items={len(self.handles)})"


class OpcClient:
    """An OPC client application's connection to one server."""

    def __init__(self, runtime: ComRuntime, name: str, process: Optional[NTProcess] = None) -> None:
        self.runtime = runtime
        self.name = name
        self.process = process
        self.sink = DataCallbackSink()
        self.sink_ref: Optional[ObjRef] = None
        self._server_local: Optional[OpcServer] = None
        self._server_proxy = None
        self.groups: Dict[str, GroupHandle] = {}

    # -- connection -----------------------------------------------------------

    def connect_local(self, server: OpcServer) -> None:
        """Attach to an in-proc server."""
        self._server_local = server
        self._server_proxy = None

    def connect_remote(self, server_ref: ObjRef):
        """Attach to a remote server; verifies it answers GetStatus."""
        self._server_local = None
        self._server_proxy = self.runtime.proxy_for(server_ref)
        result = yield self._server_proxy.GetStatus()
        return result.unwrap()

    @property
    def connected(self) -> bool:
        """Whether a server is attached."""
        return self._server_local is not None or self._server_proxy is not None

    def _require_connection(self) -> None:
        if not self.connected:
            raise OpcError(f"client {self.name} is not connected")

    def _ensure_sink_exported(self) -> None:
        if self.sink_ref is None:
            self.sink_ref = self.runtime.export(self.sink, label=f"{self.name}.sink", process=self.process)

    # -- server operations ---------------------------------------------------------

    def add_group(self, name: str, update_rate: float = 100.0, deadband: float = 0.0):
        """Create a group on the server; returns (yields) a GroupHandle."""
        self._require_connection()
        if self._server_local is not None:
            group = self._server_local.AddGroup(name, update_rate=update_rate, deadband=deadband)
            handle = GroupHandle(self, name, local=group, remote=None)
        else:
            result = yield self._server_proxy.AddGroupRemote(name, update_rate, deadband)
            handle = GroupHandle(self, name, local=None, remote=result.unwrap())
        self.groups[name] = handle
        return handle

    def read_items(self, item_ids: List[str]):
        """Group-less read (IOPCItemIO::Read)."""
        self._require_connection()
        if self._server_local is not None:
            wires = self._server_local.Read(item_ids)
        else:
            result = yield self._server_proxy.Read(item_ids)
            wires = result.unwrap()
        return [OpcValue.from_wire(wire) for wire in wires]

    def write_items(self, writes: List[Tuple[str, Any]]):
        """Group-less write (IOPCItemIO::WriteVQT)."""
        self._require_connection()
        if self._server_local is not None:
            self._server_local.WriteVQT(list(writes))
            return None
        result = yield self._server_proxy.WriteVQT([list(pair) for pair in writes])
        result.unwrap()
        return None

    def server_status(self):
        """GetStatus through either path."""
        self._require_connection()
        if self._server_local is not None:
            return self._server_local.GetStatus()
        result = yield self._server_proxy.GetStatus()
        return result.unwrap()

    def __repr__(self) -> str:
        mode = "local" if self._server_local is not None else ("remote" if self._server_proxy else "disconnected")
        return f"OpcClient({self.name}, {mode}, groups={sorted(self.groups)})"
