"""An OFTT-protected OPC server application.

The "OPC Server App (device interface)" box of Figure 2: hosts an
:class:`~repro.opc.server.OpcServer` fed by a PLC bridge, linked with the
*stateless* server FTIM — "an OPC server is simply responsible for
converting data from different types of I/O devices into the standard
format.  In this aspect, it is stateless" (§2.2.2) — so it heartbeats but
never checkpoints; on failover the new node's copy rebuilds its cache
from the devices.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.com.marshal import ObjRef
from repro.core.api import OfttApi
from repro.core.appdriver import OfttApplication
from repro.devices.plc import PLC, PlcOpcBridge
from repro.nt.process import NTProcess
from repro.opc.server import OpcServer
from repro.simnet.events import Timeout


class OpcServerApp(OfttApplication):
    """Runs an OPC server (plus PLC bridge) under OFTT protection."""

    name = "opc-server"
    #: How often the bridge polls the PLC into the server (ms).
    poll_period = 100.0

    def __init__(self, plc: PLC, server_name: str = "OPC.Device.1") -> None:
        super().__init__()
        self.plc = plc
        self.server_name = server_name
        self.api: Optional[OfttApi] = None
        self.server: Optional[OpcServer] = None
        self.bridge: Optional[PlcOpcBridge] = None
        self.server_ref: Optional[ObjRef] = None
        #: Observers told whenever a (re)launched server is exported.
        self.on_export: list = []

    def launch(self, image: Optional[Dict[str, Any]]) -> NTProcess:
        context = self.context
        assert context is not None, "install() must run before launch()"
        process = context.system.create_process(self.name)
        self.process = process

        server = OpcServer(context.runtime, self.server_name)
        server.host_process = process
        self.server = server
        bridge = PlcOpcBridge(context.kernel, self.plc, server, poll_period=self.poll_period)
        self.bridge = bridge

        def main_body(_thread):
            def loop():
                bridge.start()
                while True:
                    yield Timeout(1_000.0)

            return loop()

        process.create_thread("main", body=main_body, dynamic=False)
        process.start()
        process.on_exit.append(lambda _p: bridge.stop())

        # Stateless server FTIM: heartbeats only, no checkpoints.
        api = OfttApi(context, self.name, process)
        api.OFTTInitialize(stateful=False)
        self.api = api

        self.server_ref = context.runtime.export(server, label=self.server_name, process=process)
        for callback in self.on_export:
            callback(self.server_ref)
        self.launch_count += 1
        return process

    def stop(self) -> None:
        if self.bridge is not None:
            self.bridge.stop()
        super().stop()
