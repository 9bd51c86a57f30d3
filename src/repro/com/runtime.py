"""Per-node COM runtime: class registration and activation.

One :class:`ComRuntime` runs on each NT machine.  It keeps the class table
(backed by the node's NT registry, the way ``regsvr32`` would record it),
serves ``CoCreateInstance`` locally, and handles remote activation
requests arriving through the node's :class:`~repro.com.dcom.DcomExporter`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.com.dcom import DcomExporter, Proxy
from repro.com.factory import ClassFactory
from repro.com.guids import GUID, guid_from_name
from repro.com.hresult import REGDB_E_CLASSNOTREG
from repro.com.marshal import ObjRef
from repro.com.object import ComObject
from repro.errors import ComError
from repro.nt.process import NTProcess
from repro.nt.system import NTSystem
from repro.simnet.events import Event
from repro.simnet.network import Network


class ComRuntime:
    """COM library services for one node."""

    def __init__(self, system: NTSystem, network: Network) -> None:
        self.system = system
        self.network = network
        self.exporter = DcomExporter(system.kernel, network, system.node)
        self.exporter.activation_handler = self._activate
        self._classes: Dict[GUID, ClassFactory] = {}
        self._progids: Dict[str, GUID] = {}

    # -- registration -----------------------------------------------------------

    def register_class(
        self,
        progid: str,
        producer: Callable[..., ComObject],
        clsid: Optional[GUID] = None,
    ) -> GUID:
        """Register a coclass under *progid* (e.g. ``"OFTT.Engine"``).

        Returns the CLSID.  The registration is mirrored into the node's
        NT registry under ``CLSID\\{...}``.
        """
        clsid = clsid or guid_from_name(f"CLSID:{progid}")
        factory = ClassFactory(clsid, producer, server_name=progid)
        self._classes[clsid] = factory
        self._progids[progid] = clsid
        registry = self.system.registry
        registry.set_value(f"CLSID\\{clsid}", "ProgID", progid)
        registry.set_value(f"CLSID\\{clsid}\\InprocServer32", "Default", f"{progid}.dll")
        registry.set_value(f"ProgID\\{progid}", "CLSID", str(clsid))
        return clsid

    def unregister_class(self, progid: str) -> None:
        """Remove a registration (regsvr32 /u)."""
        clsid = self._progids.pop(progid, None)
        if clsid is None:
            raise ComError(REGDB_E_CLASSNOTREG, f"{progid} not registered")
        self._classes.pop(clsid, None)
        self.system.registry.delete_key(f"CLSID\\{clsid}")
        self.system.registry.delete_key(f"ProgID\\{progid}")

    def clsid_from_progid(self, progid: str) -> GUID:
        """CLSIDFromProgID."""
        clsid = self._progids.get(progid)
        if clsid is None:
            raise ComError(REGDB_E_CLASSNOTREG, f"{progid} not registered")
        return clsid

    def factory(self, clsid: GUID) -> ClassFactory:
        """CoGetClassObject."""
        factory = self._classes.get(clsid)
        if factory is None:
            raise ComError(REGDB_E_CLASSNOTREG, f"class {clsid} not registered")
        return factory

    # -- activation ---------------------------------------------------------------

    def create_instance(self, progid_or_clsid: Any, *args: Any, **kwargs: Any) -> ComObject:
        """CoCreateInstance for a local (in-proc) server."""
        clsid = (
            progid_or_clsid
            if isinstance(progid_or_clsid, GUID)
            else self.clsid_from_progid(progid_or_clsid)
        )
        return self.factory(clsid).CreateInstance(*args, **kwargs)

    def export(self, obj: ComObject, label: str = "", process: Optional[NTProcess] = None) -> ObjRef:
        """Expose a local object for remote callers."""
        return self.exporter.export(obj, label=label, process=process)

    def proxy_for(self, objref: ObjRef) -> Proxy:
        """Build a proxy usable from this node."""
        return self.exporter.proxy_for(objref)

    def remote_activate(self, node_name: str, progid: str, timeout: Optional[float] = None) -> Event:
        """CoCreateInstanceEx against a remote machine.

        Fires an RpcResult whose value is the new object's ObjRef.
        """
        return self.exporter.activate(node_name, progid, timeout=timeout)

    def _activate(self, progid: str) -> ObjRef:
        instance = self.create_instance(progid)
        return self.export(instance, label=progid)

    def __repr__(self) -> str:
        return f"ComRuntime({self.system.node.name}, classes={sorted(self._progids)})"
