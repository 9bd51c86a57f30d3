"""Golden digest of the datagram path.

One seeded network exercises every per-frame branch of ``Network.send``
and ``Network._deliver`` at once: jitter, serialisation delay
(``bandwidth > 0``), loss, detected corruption, duplication, egress
delay, a directional block, a partition split and heal, a NIC down and
up, a power-off and power-on, a segment down and up, unknown nodes and a
closed port.  The digest covers the exact ``repr`` of every delivery
(time, endpoints, port, payload, link, send time), the four network
counters and the trace fingerprint.  It therefore pins the network RNG
draw order and the delay arithmetic bit for bit: any change to either
moves the digest, while a faster implementation of the same path keeps
it.

Segments go down only while no frame is in flight on them: a frame in
flight on a segment that goes down is dropped on delivery (see
``test_link_down_in_flight_drops_frame``), which is a separate case.
"""

import hashlib

from repro.simnet.kernel import SimKernel
from repro.simnet.network import Network
from repro.simnet.partitions import PartitionController
from repro.simnet.random import RngStreams

NODES = ("a", "b", "c", "d")
PORTS = ("hb", "ckpt", "msq", "closed")

GOLDEN = ("16e3928431e615eb", 319)


def build():
    kernel = SimKernel()
    network = Network(kernel, RngStreams(17))
    network.add_link("lan0", latency=1.0, jitter=0.6, loss=0.04, bandwidth=40.0)
    network.add_link("lan1", latency=1.5, jitter=0.25, loss=0.02)
    for name in NODES:
        network.add_node(name)
        network.attach(name, "lan0")
        if name != "d":
            network.attach(name, "lan1")
    network.set_corruption("lan0", 0.05)
    network.set_duplication("lan1", 0.08)
    network.set_duplication("lan0", 0.03)
    network.set_egress_delay("c", 0.35)
    return kernel, network


PAIRS = [(source, dest) for source in NODES for dest in NODES if source != dest]


def schedule_sends(kernel, network, count):
    """*count* sends, one every 0.25 ms, cycling over every channel.

    Every 29th frame goes to a node that does not exist.
    """
    for index in range(count):
        source, dest = PAIRS[(index * 5) % len(PAIRS)]
        if index % 29 == 28:
            dest = "zz"
        port = PORTS[(index // 3) % len(PORTS)]
        size = 64 + (index * 37) % 400
        kernel.schedule(index * 0.25, network.send, source, dest, port, (index, kernel.now), size)


def run_golden():
    kernel, network = build()
    controller = PartitionController(network)
    deliveries = []

    def record(message):
        deliveries.append(
            repr(
                (
                    kernel.now,
                    message.source,
                    message.dest,
                    message.port,
                    message.payload,
                    message.link,
                    message.sent_at,
                    message.delivered_at,
                )
            )
        )

    for name in NODES:
        for port in PORTS[:-1]:
            network.nodes[name].bind(port, record)

    # Phase 1: faults raised and lifted while frames are in flight.
    schedule_sends(kernel, network, 320)
    kernel.schedule(10.0, network.block_direction, "b", "a")
    kernel.schedule(22.0, network.clear_blocks)
    kernel.schedule(15.0, controller.split, "lan0", ["a"], ["b", "c", "d"])
    kernel.schedule(31.0, controller.heal, "lan0")
    kernel.schedule(26.0, network.nodes["c"].nic_down, "lan1")
    kernel.schedule(41.0, network.nodes["c"].nic_up, "lan1")
    kernel.schedule(36.0, setattr, network.nodes["d"], "powered", False)
    kernel.schedule(52.0, setattr, network.nodes["d"], "powered", True)
    kernel.schedule(47.0, network.set_corruption, "lan1", 0.1)
    kernel.schedule(63.0, network.set_corruption, "lan1", 0.0)
    kernel.schedule(58.0, controller.split, "lan1", ["b"], ["a", "c"])  # isolate b
    kernel.schedule(70.0, controller.heal_all)
    kernel.run()

    # Phase 2: lan0 down with nothing in flight; traffic moves to lan1.
    network.links["lan0"].up = False
    schedule_sends(kernel, network, 120)
    kernel.run()
    network.links["lan0"].up = True

    # Phase 3: back on lan0, egress delay lifted mid-run.
    schedule_sends(kernel, network, 120)
    kernel.schedule(12.0, network.set_egress_delay, "c", 0.0)
    kernel.run()

    rows = list(deliveries)
    rows.append(
        repr(
            (
                network.delivered_count,
                network.dropped_count,
                network.corrupted_count,
                network.duplicated_count,
            )
        )
    )
    rows.append(network.trace.fingerprint())
    return rows, network


def test_datagram_path_golden_digest():
    rows, network = run_golden()
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()[:16]
    assert (digest, network.delivered_count) == GOLDEN, "\n".join(rows[-2:])


def test_golden_run_exercises_every_branch():
    """The digest is only a pin if every send and deliver branch fires."""
    rows, network = run_golden()
    events = {(record.event, record.detail.get("reason")) for record in network.trace}
    for expected in (
        ("send-failed", None),
        ("frame-blocked", None),
        ("frame-lost", None),
        ("frame-corrupted", None),
        ("frame-duplicated", None),
        ("deliver-failed", "node-down"),
        ("deliver-failed", "nic-down"),
        ("deliver-failed", "partition"),
        ("deliver-failed", "asym-block"),
        ("deliver-failed", "port-closed"),
    ):
        assert expected in events, expected
    for link in ("'lan0'", "'lan1'"):
        assert any(link in row for row in rows[:-2]), link
