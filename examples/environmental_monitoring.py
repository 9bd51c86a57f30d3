"""Continuous environmental monitoring — another §5 use case.

"The OFTT toolkit can be used in other environments where high
availability is a benefit.  These include continuous environmental
monitoring, laboratory automation, and multiparameter patient
monitoring."

Three remote monitoring sites (river gauge, air-quality station, weather
mast), each with its own fieldbus + controller + OPC server on a site PC.
A protected aggregation station subscribes to *all* sites, maintains
rolling statistics and exceedance counts per site, and must not lose the
accumulating environmental record when its PC fails — the record is the
product.

Shows how to build a custom multi-server OfttApplication on the public
API (one OpcClient per site inside a single protected process).

Run:  python examples/environmental_monitoring.py
"""

from repro.core.api import OfttApi
from repro.core.appdriver import OfttApplication
from repro.core.cluster import OfttPair
from repro.core.config import OfttConfig
from repro.com.runtime import ComRuntime
from repro.devices.device import Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.signals import RandomWalk, Sine
from repro.nt import NTSystem
from repro.opc.client import OpcClient
from repro.opc.server import OpcServer
from repro.simnet import Network, RngStreams, SimKernel, Timeout, TraceLog

SITES = {
    "river": [("stage_m", RandomWalk(start=2.1, step=0.02, mean=2.1, minimum=0.0)), ],
    "air": [("pm25", RandomWalk(start=18.0, step=1.0, mean=18.0, minimum=0.0)),
            ("ozone", Sine(offset=45.0, amplitude=20.0, period=86_400.0))],
    "weather": [("wind_ms", RandomWalk(start=6.0, step=0.5, mean=6.0, minimum=0.0)),
                ("temp_c", Sine(offset=12.0, amplitude=9.0, period=86_400.0))],
}
LIMITS = {"air.pm25": 22.0, "weather.wind_ms": 7.0, "river.stage_m": 2.15}

STATE_VARS = ("samples", "exceedances", "running_sum", "running_count")


class EnvironmentalAggregator(OfttApplication):
    """Protected aggregator subscribing to every site's OPC server."""

    name = "env-aggregator"

    def __init__(self, site_refs):
        super().__init__()
        self.site_refs = dict(site_refs)
        self.api = None

    def launch(self, image):
        context = self.context
        process = context.system.create_process(self.name)
        self.process = process
        space = process.address_space
        restored = dict(image.get("globals", {})) if image else {}
        space.write("samples", restored.get("samples", 0))
        space.write("exceedances", restored.get("exceedances", {}))
        space.write("running_sum", restored.get("running_sum", {}))
        space.write("running_count", restored.get("running_count", {}))

        def main(_thread):
            def loop():
                # One OPC client (and subscription) per site.
                for site, ref in sorted(self.site_refs.items()):
                    client = OpcClient(context.runtime, f"{self.name}:{site}", process=process)
                    yield from client.connect_remote(ref)
                    group = yield from client.add_group(
                        f"{site}:{context.node_name}:{self.launch_count}", update_rate=1_000.0
                    )
                    item_ids = [f"{site}1.{point}" for point, _sig in SITES[site]]
                    yield from group.add_items(item_ids)
                    group.set_callback(lambda _name, batch, s=site: self._ingest(s, batch))
                while True:
                    yield Timeout(5_000.0)

            return loop()

        process.create_thread("main", body=main, dynamic=False)
        process.start()
        api = OfttApi(context, self.name, process)
        api.OFTTInitialize(stateful=True, checkpoint_period=2_000.0)
        api.OFTTSelSave("globals", list(STATE_VARS))
        self.api = api
        self.launch_count += 1
        return process

    def _ingest(self, site, batch):
        if self.process is None or not self.process.alive:
            return
        space = self.process.address_space
        samples = space.read("samples")
        sums = space.read("running_sum")
        counts = space.read("running_count")
        exceedances = space.read("exceedances")
        for _handle, item_id, value in batch:
            if not value.quality.is_good or not isinstance(value.value, (int, float)):
                continue
            samples += 1
            key = item_id
            sums[key] = sums.get(key, 0.0) + value.value
            counts[key] = counts.get(key, 0) + 1
            short = f"{site}.{item_id.split('.')[-1]}"
            limit = LIMITS.get(short)
            if limit is not None and value.value > limit:
                exceedances[short] = exceedances.get(short, 0) + 1
        space.write("samples", samples)
        space.write("running_sum", sums)
        space.write("running_count", counts)
        space.write("exceedances", exceedances)

    def report(self):
        space = self.process.address_space
        sums, counts = space.read("running_sum"), space.read("running_count")
        means = {k: round(sums[k] / counts[k], 2) for k in sorted(sums) if counts.get(k)}
        return {
            "samples": space.read("samples"),
            "means": means,
            "exceedances": space.read("exceedances"),
        }


def main() -> None:
    kernel = SimKernel()
    rngs = RngStreams(seed=404)
    trace = TraceLog(clock=lambda: kernel.now)
    network = Network(kernel, rngs, trace)
    network.add_link("wan", latency=2.0, jitter=0.5)

    systems = {}
    for name in [f"{site}-pc" for site in SITES] + ["agg1", "agg2"]:
        network.add_node(name)
        network.attach(name, "wan")
        systems[name] = NTSystem(kernel, network.nodes[name], rngs, trace)
        systems[name].boot_immediately()

    # Each site: fieldbus -> controller -> OPC server on the site PC.
    site_refs = {}
    for site, points in SITES.items():
        bus = Fieldbus(f"{site}-bus")
        for point, signal in points:
            bus.attach(Sensor(point, signal, noise=0.1))
        controller = PLC(kernel, f"{site}1", bus, rngs.stream(site), scan_period=500.0)
        runtime = ComRuntime(systems[f"{site}-pc"], network)
        server = OpcServer(runtime, f"OPC.{site}.1")
        bridge = PlcOpcBridge(kernel, controller, server, poll_period=1_000.0)
        controller.start()
        bridge.start()
        site_refs[site] = runtime.export(server, label=site)

    pair = OfttPair(
        network=network,
        systems={"agg1": systems["agg1"], "agg2": systems["agg2"]},
        config=OfttConfig(checkpoint_period=2_000.0),
        app_factory=lambda: EnvironmentalAggregator(site_refs),
        unit="environment",
    )
    pair.start()
    pair.settle()
    print(f"aggregation pair formed: primary={pair.primary_node()}, sites={sorted(SITES)}\n")

    kernel.run(until=120_000.0)
    primary = pair.primary_node()
    report = pair.apps[primary].report()
    print(f"t=2min  {primary}: samples={report['samples']}")
    print(f"        site means : {report['means']}")
    print(f"        exceedances: {report['exceedances']}")

    samples_before = report["samples"]
    print(f"\n>>> power failure at {primary}\n")
    systems[primary].power_off()
    kernel.run(until=180_000.0)
    survivor = pair.primary_node()
    report2 = pair.apps[survivor].report()
    print(f"t=3min  {survivor} carries the record: samples={report2['samples']}")
    print(f"        exceedances: {report2['exceedances']}")
    assert survivor != primary
    assert report2["samples"] > samples_before - 30, "record survived within the checkpoint window"
    print("\nthe environmental record survived the station failure.")


if __name__ == "__main__":
    main()
