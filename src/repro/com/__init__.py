"""COM object model and DCOM remoting, simulated.

OFTT "is built on top of the Microsoft COM component architecture.  Fault
tolerance functions such as state checkpointing, failure detection and
recovery are implemented as COM objects" (§2.2).  This package provides
that substrate:

* :class:`GUID` and deterministic IID/CLSID generation.
* Interface declarations (:func:`declare_interface`, ``IUNKNOWN``).
* :class:`ComObject` — reference-counted objects with ``QueryInterface``.
* :class:`ClassFactory` + per-node :class:`ComRuntime` with registry-backed
  class registration and ``CoCreateInstance``.
* :class:`DcomExporter` / :class:`Proxy` — ORPC over the simulated network
  with the RPC failure semantics the paper complains about (slow timeouts,
  ``RPC_E_DISCONNECTED`` after node death).
"""

from repro.com.guids import GUID, guid_from_name
from repro.com.hresult import (
    CLASS_E_CLASSNOTAVAILABLE,
    E_FAIL,
    E_NOINTERFACE,
    E_POINTER,
    REGDB_E_CLASSNOTREG,
    RPC_E_DISCONNECTED,
    RPC_E_SERVERCALL_REJECTED,
    RPC_E_TIMEOUT,
    S_FALSE,
    S_OK,
    failed,
    hresult_name,
    succeeded,
)
from repro.com.interfaces import IUNKNOWN, InterfaceDecl, declare_interface
from repro.com.object import ComObject
from repro.com.factory import ClassFactory
from repro.com.runtime import ComRuntime
from repro.com.marshal import ObjRef
from repro.com.dcom import DcomExporter, Proxy, RpcResult

__all__ = [
    "CLASS_E_CLASSNOTAVAILABLE",
    "ClassFactory",
    "ComObject",
    "ComRuntime",
    "DcomExporter",
    "E_FAIL",
    "E_NOINTERFACE",
    "E_POINTER",
    "GUID",
    "IUNKNOWN",
    "InterfaceDecl",
    "ObjRef",
    "Proxy",
    "REGDB_E_CLASSNOTREG",
    "RPC_E_DISCONNECTED",
    "RPC_E_SERVERCALL_REJECTED",
    "RPC_E_TIMEOUT",
    "RpcResult",
    "S_FALSE",
    "S_OK",
    "declare_interface",
    "failed",
    "guid_from_name",
    "hresult_name",
    "succeeded",
]
