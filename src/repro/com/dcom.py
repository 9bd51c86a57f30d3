"""DCOM remoting: object exporting, proxies, and ORPC over the network.

Each node runs one ORPC service (:class:`DcomExporter`, standing in for
RPCSS).  Exporting a :class:`~repro.com.object.ComObject` yields an
:class:`~repro.com.marshal.ObjRef`; any node can build a :class:`Proxy`
from it and invoke interface methods across the simulated network.

Failure semantics (deliberately faithful to the paper's §3.3 complaint
that DCOM's "RPC service does not behave well in the presence of
failures"):

* Target **node dead / partitioned** — no response at all; the caller
  waits out the full :data:`RPC_TIMEOUT` (2000 ms, DCOM-like) before
  seeing ``RPC_E_TIMEOUT``.  This is why OFTT needs its own fast
  heartbeat-based failure detection.
* Target **process dead but node alive** — the service answers quickly
  with ``RPC_E_DISCONNECTED``.
* Unknown object / method — immediate ``E_NOINTERFACE``-style failure.
* Server method raised — the exception is marshaled back as ``E_FAIL``
  with the message preserved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.com.hresult import (
    E_FAIL,
    E_NOINTERFACE,
    RPC_E_DISCONNECTED,
    RPC_E_TIMEOUT,
    S_OK,
    hresult_name,
)
from repro.com.marshal import ObjRef, estimate_wire_size, marshal
from repro.com.object import ComObject
from repro.errors import RpcError
from repro.nt.process import NTProcess
from repro.simnet.events import Event
from repro.simnet.kernel import SimKernel
from repro.simnet.network import Message, NetNode, Network

ORPC_PORT = "dcom.orpc"
#: How long a call or an activation waits for its reply before
#: ``RPC_E_TIMEOUT`` (ms).
RPC_TIMEOUT = 2000.0
#: How long a liveness ping waits for its answer (ms).
PING_TIMEOUT = 500.0


@dataclass(slots=True)
class RpcResult:
    """Outcome of a remote call."""

    ok: bool
    value: Any = None
    hresult: int = S_OK
    detail: str = ""

    def unwrap(self) -> Any:
        """Return the value or raise :class:`RpcError`."""
        if not self.ok:
            raise RpcError(self.hresult, self.detail or hresult_name(self.hresult))
        return self.value

    def __repr__(self) -> str:
        if self.ok:
            return f"RpcResult(ok, {self.value!r})"
        return f"RpcResult({hresult_name(self.hresult)}, {self.detail})"


class _Export:
    """Book-keeping for one exported object."""

    __slots__ = ("obj", "label", "process")

    def __init__(self, obj: ComObject, label: str, process: Optional[NTProcess]) -> None:
        self.obj = obj
        self.label = label
        self.process = process


class DcomExporter:
    """The per-node ORPC service (RPCSS stand-in)."""

    def __init__(self, kernel: SimKernel, network: Network, node: NetNode) -> None:
        self.kernel = kernel
        self.network = network
        self.node = node
        # oids and call ids are seeded from the exporter's creation time:
        # a replacement exporter (node reinstall rebinds the ORPC port)
        # must never mint an oid that aliases an ObjRef still held by a
        # remote client, nor accept a stale in-flight reply as one of its
        # own calls.  Class-level counters also guaranteed that, but they
        # leaked across scenarios in one Python process, so two runs of
        # the same seed exported different oids.  call_id 0 stays
        # reserved for oneway calls (no reply expected).
        epoch_base = int(kernel.now) * 1_000_000
        self._oid_counter = itertools.count(epoch_base + 1)
        self._call_counter = itertools.count(epoch_base + 1)
        self.exports: Dict[int, _Export] = {}
        self._pending: Dict[int, Tuple[Event, Any]] = {}  # call_id -> (event, timer)
        self.activation_handler: Optional[Callable[[str], ObjRef]] = None
        node.bind(ORPC_PORT, self._on_message)

    def close(self) -> None:
        """Release every in-flight call's timeout timer (node teardown).

        Pending events are left unfired — a closed exporter answers
        nobody — but their timers leave the kernel immediately instead
        of draining at the RPC timeout.
        """
        for call_id in sorted(self._pending):
            _done, timer = self._pending[call_id]
            self.kernel.cancel(timer)
        self._pending.clear()

    # -- export side -----------------------------------------------------------

    def export(self, obj: ComObject, label: str = "", process: Optional[NTProcess] = None) -> ObjRef:
        """Make *obj* remotely callable; returns its :class:`ObjRef`.

        Passing *process* ties the export's availability to that process:
        callers get ``RPC_E_DISCONNECTED`` once it dies.
        """
        oid = next(self._oid_counter)
        self.exports[oid] = _Export(obj, label, process)
        iids = tuple(decl.iid for decl in obj.interfaces())
        return ObjRef(node=self.node.name, oid=oid, iids=iids, label=label or type(obj).__name__)

    def revoke(self, objref: ObjRef) -> None:
        """Withdraw an export (subsequent calls get disconnected)."""
        self.exports.pop(objref.oid, None)

    # -- client side ---------------------------------------------------------

    def proxy_for(self, objref: ObjRef) -> "Proxy":
        """Build a proxy through which this node can call *objref*."""
        return Proxy(self, objref)

    def invoke(self, objref: ObjRef, method: str, args: Tuple[Any, ...]) -> Event:
        """Start a remote call; returns an :class:`Event` firing RpcResult
        (a failed ``RPC_E_TIMEOUT`` one after :data:`RPC_TIMEOUT`)."""
        call_id = next(self._call_counter)
        done = Event(name=f"rpc:{objref.label}.{method}:{call_id}")
        wire_args, size = marshal(list(args))
        request = {
            "kind": "request",
            "call_id": call_id,
            "reply_to": self.node.name,
            "oid": objref.oid,
            "method": method,
            "args": wire_args,
        }
        timer = self.kernel.schedule(RPC_TIMEOUT, self._on_timeout, call_id)
        self._pending[call_id] = (done, timer)
        sent = self.network.send(self.node.name, objref.node, ORPC_PORT, request, size=64 + size)
        if not sent:
            # No route at all: DCOM still burns the timeout figuring it out;
            # we keep the timer armed rather than failing fast on purpose.
            pass
        return done

    def invoke_oneway(self, objref: ObjRef, method: str, args: Tuple[Any, ...]) -> bool:
        """Fire-and-forget call (used for data-change callbacks)."""
        wire_args, size = marshal(list(args))
        request = {
            "kind": "request",
            "call_id": 0,
            "reply_to": "",
            "oid": objref.oid,
            "method": method,
            "args": wire_args,
        }
        return self.network.send(self.node.name, objref.node, ORPC_PORT, request, size=64 + size)

    def check_liveness(self, objref: ObjRef) -> Event:
        """DCOM-style ping: is the exported object still served?

        Fires an :class:`RpcResult` whose value is True/False; an
        unanswered ping (dead node, partition) resolves to a *failed*
        result after :data:`PING_TIMEOUT`.  This is the distributed-GC ping
        machinery real DCOM runs to collect references to dead clients.
        """
        call_id = next(self._call_counter)
        done = Event(name=f"ping:{objref.label}:{call_id}")
        timer = self.kernel.schedule(PING_TIMEOUT, self._on_timeout, call_id)
        self._pending[call_id] = (done, timer)
        self.network.send(
            self.node.name,
            objref.node,
            ORPC_PORT,
            {"kind": "ping", "call_id": call_id, "reply_to": self.node.name, "oid": objref.oid},
            size=48,
        )
        return done

    def activate(self, node_name: str, progid: str, timeout: Optional[float] = None) -> Event:
        """Remote activation: ask *node_name* to create class *progid*.

        Fires an RpcResult whose value is the new object's ObjRef.
        """
        call_id = next(self._call_counter)
        done = Event(name=f"activate:{progid}@{node_name}")
        request = {
            "kind": "activate",
            "call_id": call_id,
            "reply_to": self.node.name,
            "progid": progid,
        }
        timer = self.kernel.schedule(
            timeout if timeout is not None else RPC_TIMEOUT, self._on_timeout, call_id
        )
        self._pending[call_id] = (done, timer)
        self.network.send(self.node.name, node_name, ORPC_PORT, request, size=96)
        return done

    # -- wire handling --------------------------------------------------------

    # Reply-vs-timeout at the same tick is arbitrated by the _pending.pop
    # handshake: whichever handler runs first claims the call exactly
    # once and the loser sees None.  Either outcome is a valid protocol
    # result, so the interprocedural write-write (via _handle_reply) is
    # the designed behaviour.
    def _on_message(self, message: Message) -> None:  # oftt-lint: ok[ip-race-write-write]
        payload = message.payload
        kind = payload.get("kind")
        if kind == "request":
            self._serve_request(message)
        elif kind == "activate":
            self._serve_activation(message)
        elif kind == "ping":
            self._serve_ping(message)
        elif kind == "reply":
            self._handle_reply(payload)

    def _serve_request(self, message: Message) -> None:
        """Call the exported method and reply.

        The method gets the delivered ``args`` uncopied, as
        :meth:`_handle_reply` takes a reply's value: :func:`marshal`
        copied them at the sender (see :mod:`repro.com.marshal`).
        """
        payload = message.payload
        oid = payload["oid"]
        method = payload["method"]
        export = self.exports.get(oid)
        if export is None:
            self._reply(message, RpcResult(False, hresult=RPC_E_DISCONNECTED, detail=f"no object {oid}"))
            return
        if export.process is not None and not export.process.alive:
            self._reply(message, RpcResult(False, hresult=RPC_E_DISCONNECTED, detail="server process dead"))
            return
        decl = export.obj.find_interface(method)
        if decl is None:
            self._reply(
                message,
                RpcResult(False, hresult=E_NOINTERFACE, detail=f"{export.label} has no method {method}"),
            )
            return
        size = None
        try:
            value = getattr(export.obj, method)(*payload["args"])
            value, size = marshal(value)
            result = RpcResult(True, value=value)
        except Exception as exc:  # noqa: BLE001 - marshaled back to caller
            result = RpcResult(False, hresult=getattr(exc, "hresult", E_FAIL), detail=str(exc))
        self._reply(message, result, size)

    def _serve_ping(self, message: Message) -> None:
        export = self.exports.get(message.payload["oid"])
        alive = export is not None and (export.process is None or export.process.alive)
        self._reply(message, RpcResult(True, value=alive))

    def _serve_activation(self, message: Message) -> None:
        progid = message.payload["progid"]
        if self.activation_handler is None:
            self._reply(message, RpcResult(False, hresult=E_FAIL, detail="no activation handler"))
            return
        try:
            objref = self.activation_handler(progid)
            self._reply(message, RpcResult(True, value=objref))
        except Exception as exc:  # noqa: BLE001 - marshaled back to caller
            self._reply(message, RpcResult(False, hresult=getattr(exc, "hresult", E_FAIL), detail=str(exc)))

    def _reply(self, request_message: Message, result: RpcResult, value_size: Optional[int] = None) -> None:
        """Send *result* back; *value_size* is its value's wire size when
        :func:`marshal` already measured it."""
        call_id = request_message.payload["call_id"]
        reply_to = request_message.payload["reply_to"]
        if not reply_to or call_id == 0:
            return  # one-way call
        reply = {
            "kind": "reply",
            "call_id": call_id,
            "ok": result.ok,
            "value": result.value,
            "hresult": result.hresult,
            "detail": result.detail,
        }
        if value_size is None:
            value_size = estimate_wire_size(result.value)
        self.network.send(self.node.name, reply_to, ORPC_PORT, reply, size=48 + value_size)

    def _handle_reply(self, payload: Dict[str, Any]) -> None:
        call_id = payload["call_id"]
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return  # reply arrived after timeout; drop it
        done, timer = pending
        self.kernel.cancel(timer)
        done.succeed(
            RpcResult(
                ok=payload["ok"],
                value=payload["value"],
                hresult=payload["hresult"],
                detail=payload["detail"],
            )
        )

    def _on_timeout(self, call_id: int) -> None:
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return
        done, _timer = pending
        done.succeed(RpcResult(False, hresult=RPC_E_TIMEOUT, detail="RPC timed out"))

    def __repr__(self) -> str:
        return f"DcomExporter({self.node.name}, exports={len(self.exports)}, pending={len(self._pending)})"


class Proxy:
    """Client-side stand-in for a remote object.

    ``proxy.call("Method", args...)`` returns a waitable Event carrying an
    :class:`RpcResult`; generator processes ``yield`` it.  Attribute sugar
    (``proxy.Method(args...)``) does the same.
    """

    def __init__(self, exporter: DcomExporter, objref: ObjRef) -> None:
        self._exporter = exporter
        self.objref = objref

    def call(self, method: str, *args: Any) -> Event:
        """Start a two-way remote call."""
        return self._exporter.invoke(self.objref, method, args)

    def call_oneway(self, method: str, *args: Any) -> bool:
        """Start a one-way (no reply) remote call."""
        return self._exporter.invoke_oneway(self.objref, method, args)

    def __getattr__(self, method: str) -> Callable[..., Event]:
        if method.startswith("_"):
            raise AttributeError(method)

        def _remote(*args: Any) -> Event:
            return self.call(method, *args)

        return _remote

    def __repr__(self) -> str:
        return f"Proxy({self.objref})"
