"""Quickstart: make an application fault tolerant with OFTT.

Builds the smallest meaningful deployment — two simulated NT machines on
an Ethernet, an application that counts upward, and the OFTT middleware —
then pulls the plug on the primary and shows the backup continuing from
the last checkpoint.

Run:  python examples/quickstart.py
"""

from repro.core import OfttApi, OfttApplication, OfttConfig, OfttPair
from repro.nt import NTSystem
from repro.simnet import Network, RngStreams, SimKernel, Timeout, TraceLog


class CounterApp(OfttApplication):
    """An application whose only state is a counter it must not lose.

    Integration with OFTT is the three marked lines in ``launch`` — the
    paper's "include a header file, insert a single line" story.
    """

    name = "counter"

    def launch(self, image):
        context = self.context
        process = context.system.create_process(self.name)
        self.process = process

        # Restore from the checkpoint image on relaunch/failover.
        restored = image.get("globals", {}).get("count", 0) if image else 0
        process.address_space.write("count", restored)

        def main(_thread):
            def loop():
                while True:
                    yield Timeout(100.0)
                    space = process.address_space
                    space.write("count", space.read("count") + 1)

            return loop()

        process.create_thread("main", body=main, dynamic=False)
        process.start()

        api = OfttApi(context, self.name, process)      # (1) bind the API
        api.OFTTInitialize(stateful=True)               # (2) the one required call
        api.OFTTSelSave("globals", ["count"])           # (3) optional: designate state
        self.api = api
        self.launch_count += 1
        return process


def main() -> None:
    # -- substrate: kernel, network, two NT machines ------------------------
    kernel = SimKernel()
    rngs = RngStreams(seed=2026)
    trace = TraceLog(clock=lambda: kernel.now)
    network = Network(kernel, rngs, trace)
    network.add_link("lan0", latency=0.5, jitter=0.1)
    systems = {}
    for name in ("node1", "node2"):
        network.add_node(name)
        network.attach(name, "lan0")
        systems[name] = NTSystem(kernel, network.nodes[name], rngs, trace)
        systems[name].boot_immediately()

    # -- the OFTT pair -------------------------------------------------------
    pair = OfttPair(network, systems, OfttConfig(), CounterApp, unit="quickstart")
    pair.start()
    pair.settle()
    print(f"pair formed: primary={pair.primary_node()}, backup={pair.backup_node()}")

    # -- run, then fail the primary -------------------------------------------
    kernel.run(until=10_000.0)
    primary = pair.primary_node()
    count_before = pair.apps[primary].process.address_space.read("count")
    print(f"t=10s  count on {primary}: {count_before}")

    print(f"t=10s  POWERING OFF {primary}")
    systems[primary].power_off()
    kernel.run(until=12_000.0)

    survivor = pair.primary_node()
    count_after = pair.apps[survivor].process.address_space.read("count")
    print(f"t=12s  {survivor} took over; count continued at {count_after}")
    assert survivor != primary
    assert count_after >= count_before - 15, "state survived within one checkpoint window"

    kernel.run(until=20_000.0)
    print(f"t=20s  count on {survivor}: {pair.apps[survivor].process.address_space.read('count')}")
    print("\nTimeline of engine decisions:")
    for record in trace.select(category="engine"):
        if record.event in ("role-decided", "peer-lost", "takeover"):
            print(f"  {record}")


if __name__ == "__main__":
    main()
