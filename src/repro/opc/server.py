"""The OPC server COM object.

"A hardware vendor encapsulates details of the device driver into a COM
object (called OPC server) that provides standard interfaces ... to any
application (called an OPC client) in a consistent manner" (§1).

The server owns an :class:`~repro.opc.items.ItemNamespace`, manages
:class:`~repro.opc.group.OpcGroup` subscriptions, and is fed by the device
layer through :meth:`OpcServer.update_item`.  Per the paper (§2.2.2) the
OPC server is *stateless* from OFTT's perspective — its cache is rebuilt
from the devices — which is why it gets the non-checkpointing server FTIM.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List

from repro.com.interfaces import declare_interface
from repro.com.object import ComObject
from repro.com.runtime import ComRuntime
from repro.com.hresult import OPC_E_DUPLICATENAME
from repro.errors import OpcError
from repro.opc.group import OpcGroup
from repro.opc.items import ItemNamespace
from repro.opc.types import GOOD, OpcValue, Quality

IOPC_SERVER = declare_interface(
    "IOPCServer",
    ("AddGroup", "AddGroupRemote", "RemoveGroup", "GetGroupByName", "GetStatus", "Browse"),
)

IOPC_ITEM_IO = declare_interface("IOPCItemIO", ("Read", "WriteVQT"))


class ServerState(enum.Enum):
    """OPC server status values (OPC_STATUS_*)."""

    RUNNING = "running"
    FAILED = "failed"
    SUSPENDED = "suspended"
    NO_CONFIG = "noConfig"


# Bound once for update_item, which tests them on every device update
# (see the Quality members in repro.opc.types).
_RUNNING = ServerState.RUNNING
_NO_CONFIG = ServerState.NO_CONFIG


class OpcServer(ComObject):
    """An OPC-DA server."""

    IMPLEMENTS = (IOPC_SERVER, IOPC_ITEM_IO)

    def __init__(self, runtime: ComRuntime, name: str, vendor: str = "SoHaR Simulated Devices") -> None:
        super().__init__()
        self.runtime = runtime
        self.kernel = runtime.system.kernel
        self.name = name
        self.vendor = vendor
        self.namespace = ItemNamespace()
        self.groups: Dict[str, OpcGroup] = {}
        self.state = ServerState.NO_CONFIG
        self.started_at = self.kernel.now
        self.update_count = 0
        # Optional hosting process: exports die with it (DCOM liveness).
        self.host_process = None

    # -- device-side feed ------------------------------------------------------

    def update_item(self, item_id: str, value: Any, quality: Quality = GOOD) -> OpcValue:
        """Push a new device reading into the cache and notify groups."""
        new_value = self.namespace.update(item_id, value, quality, self.kernel.now)
        self.update_count += 1
        if self.state is _NO_CONFIG:
            self.state = _RUNNING
        for group in self.groups.values():
            group._on_item_update(item_id, new_value)
        return new_value

    # -- IOPCServer ----------------------------------------------------------------

    def AddGroup(self, name: str, update_rate: float = 100.0, deadband: float = 0.0) -> OpcGroup:
        """Create a subscription group (error on duplicate names)."""
        if name in self.groups:
            raise OpcError(f"server {self.name}: group {name} exists", hresult=OPC_E_DUPLICATENAME)
        group = OpcGroup(self, name, update_rate=update_rate, deadband=deadband)
        self.groups[name] = group
        return group

    def AddGroupRemote(self, name: str, update_rate: float = 100.0, deadband: float = 0.0):
        """Remote-activation variant of :meth:`AddGroup`.

        Returns the new group's ObjRef so DCOM clients can proxy it.
        """
        group = self.AddGroup(name, update_rate=update_rate, deadband=deadband)
        return self.runtime.export(group, label=f"{self.name}.{name}", process=self.host_process)

    def RemoveGroup(self, name: str) -> None:
        """Destroy a group."""
        if name not in self.groups:
            raise OpcError(f"server {self.name}: no group {name}")
        group = self.groups.pop(name)
        group.clear_callback()
        group.Release()

    def _on_group_collected(self, name: str) -> None:
        """A group's remote sink died (ping GC): drop the group."""
        group = self.groups.pop(name, None)
        if group is not None:
            group.Release()

    def GetGroupByName(self, name: str) -> OpcGroup:
        """Look up a group."""
        if name not in self.groups:
            raise OpcError(f"server {self.name}: no group {name}")
        return self.groups[name]

    def GetStatus(self) -> dict:
        """Server status block (IOPCServer::GetStatus)."""
        return {
            "vendor": self.vendor,
            "name": self.name,
            "state": self.state.value,
            "start_time": self.started_at,
            "current_time": self.kernel.now,
            "group_count": len(self.groups),
            "item_count": len(self.namespace),
            "update_count": self.update_count,
        }

    def Browse(self, branch: str = "") -> List[str]:
        """Browse the item hierarchy."""
        return self.namespace.browse(branch)

    # -- IOPCItemIO -------------------------------------------------------------------

    def Read(self, item_ids: List[str]) -> List[dict]:
        """Device-independent read of current values (wire form)."""
        return [self.namespace.read(item_id).as_wire() for item_id in item_ids]

    def WriteVQT(self, writes: List[Any]) -> None:
        """Write values to items (list of ``(item_id, value)`` pairs)."""
        for item_id, value in writes:
            self.namespace.client_write(item_id, value)

    def final_release(self) -> None:
        for group in list(self.groups.values()):
            group.clear_callback()
        self.groups.clear()

    def __repr__(self) -> str:
        return f"OpcServer({self.name}, {self.state.value}, items={len(self.namespace)}, groups={len(self.groups)})"
