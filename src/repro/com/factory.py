"""COM class factories.

A :class:`ClassFactory` wraps a Python callable that produces instances of
a coclass.  Factories are registered with the per-node
:class:`~repro.com.runtime.ComRuntime` under a CLSID, which also records
the registration in the node's NT registry (the way ``regsvr32`` would).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.com.guids import GUID
from repro.com.hresult import CLASS_E_CLASSNOTAVAILABLE
from repro.com.interfaces import declare_interface
from repro.com.object import ComObject
from repro.errors import ComError

ICLASS_FACTORY = declare_interface("IClassFactory", ("CreateInstance", "LockServer"))


class ClassFactory(ComObject):
    """Creates instances of one coclass."""

    IMPLEMENTS = (ICLASS_FACTORY,)

    def __init__(self, clsid: GUID, producer: Callable[..., ComObject], server_name: str = "") -> None:
        super().__init__()
        self.clsid = clsid
        self.producer = producer
        self.server_name = server_name
        self.locked = False

    def CreateInstance(self, *args: Any, **kwargs: Any) -> ComObject:
        """Produce a new instance (IClassFactory::CreateInstance)."""
        if self.destroyed:
            raise ComError(CLASS_E_CLASSNOTAVAILABLE, f"factory for {self.clsid} destroyed")
        instance = self.producer(*args, **kwargs)
        if not isinstance(instance, ComObject):
            raise ComError(CLASS_E_CLASSNOTAVAILABLE, f"producer for {self.clsid} returned non-COM object")
        return instance

    def LockServer(self, lock: bool) -> None:
        """Pin the hosting server in memory (IClassFactory::LockServer)."""
        self.locked = bool(lock)

    def __repr__(self) -> str:
        return f"ClassFactory({self.server_name or self.clsid})"
