"""Multiparameter patient monitoring — the paper's closing use case.

"In addition to industrial applications, the OFTT toolkit can be used in
other environments where high availability is a benefit.  These include
continuous environmental monitoring, laboratory automation, and
multiparameter patient monitoring" (§5).

A bedside device bus carries heart-rate, SpO2 and blood-pressure sensors,
scanned by a bedside controller (the PLC model) and exposed over OPC.
The monitoring-station pair runs an OFTT-protected client that records
vitals trends and raises alarms on threshold breaches.  A station power
failure must not lose the alarm record or interrupt monitoring.

Run:  python examples/patient_monitoring.py
"""

from repro.apps.scada import AlarmRule, ScadaMonitorApp
from repro.core.cluster import OfttPair
from repro.core.config import OfttConfig
from repro.com.runtime import ComRuntime
from repro.devices.device import Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.signals import RandomWalk, Sine
from repro.nt import NTSystem
from repro.opc.server import OpcServer
from repro.simnet import Network, RngStreams, SimKernel, TraceLog

VITALS = ["bed1.heart_rate", "bed1.spo2", "bed1.systolic"]
ALARMS = [
    AlarmRule("bed1.heart_rate", high_limit=120.0),
    AlarmRule("bed1.systolic", high_limit=150.0),
]


def build(seed=99):
    kernel = SimKernel()
    rngs = RngStreams(seed)
    trace = TraceLog(clock=lambda: kernel.now)
    network = Network(kernel, rngs, trace)
    network.add_link("ward-lan", latency=0.5, jitter=0.1)

    systems = {}
    for name in ("bedside-pc", "station1", "station2"):
        network.add_node(name)
        network.attach(name, "ward-lan")
        systems[name] = NTSystem(kernel, network.nodes[name], rngs, trace)
        systems[name].boot_immediately()

    # The patient: vitals as signal models (a tachycardia episode is the
    # sine peak pushing heart rate above the alarm limit periodically).
    bus = Fieldbus("bedside-bus")
    bus.attach(Sensor("heart_rate", Sine(offset=95.0, amplitude=35.0, period=60_000.0), noise=2.0))
    bus.attach(Sensor("spo2", RandomWalk(start=97.0, step=0.2, mean=97.0, minimum=85.0, maximum=100.0)))
    bus.attach(Sensor("systolic", RandomWalk(start=125.0, step=1.5, mean=125.0, minimum=80.0, maximum=200.0)))
    controller = PLC(kernel, "bed1", bus, rngs.stream("bedside"), scan_period=250.0)

    runtime = ComRuntime(systems["bedside-pc"], network)
    server = OpcServer(runtime, "OPC.Bedside.1", vendor="Simulated Medical Devices")
    bridge = PlcOpcBridge(kernel, controller, server, poll_period=500.0)
    server_ref = runtime.export(server, label="bedside")

    pair = OfttPair(
        network=network,
        systems={"station1": systems["station1"], "station2": systems["station2"]},
        config=OfttConfig(checkpoint_period=500.0),
        app_factory=lambda: ScadaMonitorApp(
            server_ref=server_ref, items=VITALS, alarms=ALARMS, update_rate=500.0
        ),
        unit="patient-monitor",
    )
    return kernel, systems, controller, bridge, pair


def main() -> None:
    kernel, systems, controller, bridge, pair = build()
    controller.start()
    bridge.start()
    pair.start()
    pair.settle()
    print(f"monitoring pair formed: primary={pair.primary_node()}\n")

    kernel.run(until=120_000.0)
    primary = pair.primary_node()
    app = pair.apps[primary]
    print(f"t=2min  station {primary}:")
    print(f"  vitals updates: {app.updates_seen()}")
    print(f"  tachycardia alarms: {app.alarm_count('bed1.heart_rate')}")
    print(f"  hypertension alarms: {app.alarm_count('bed1.systolic')}")

    alarms_before = app.alarm_count("bed1.heart_rate")
    print(f"\n>>> power failure at station {primary}\n")
    systems[primary].power_off()
    kernel.run(until=140_000.0)

    survivor = pair.primary_node()
    surviving_app = pair.apps[survivor]
    print(f"t=2min20s  station {survivor} took over:")
    print(f"  tachycardia alarms (preserved): {surviving_app.alarm_count('bed1.heart_rate')}")
    print(f"  monitoring continues: updates={surviving_app.updates_seen()}")
    assert survivor != primary
    assert surviving_app.alarm_count("bed1.heart_rate") >= alarms_before - 1
    assert surviving_app.updates_seen() > 0

    kernel.run(until=240_000.0)
    print(f"\nt=4min  alarms on {survivor}: "
          f"HR={surviving_app.alarm_count('bed1.heart_rate')}, "
          f"BP={surviving_app.alarm_count('bed1.systolic')} — no monitoring gap.")


if __name__ == "__main__":
    main()
