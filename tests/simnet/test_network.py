"""Unit tests for the simulated network."""

import pytest

from repro.errors import SimError
from repro.simnet.kernel import SimKernel
from repro.simnet.network import Network
from repro.simnet.partitions import PartitionController
from repro.simnet.random import RngStreams


def build(seed=0, loss=0.0, links=1):
    kernel = SimKernel()
    network = Network(kernel, RngStreams(seed))
    for index in range(links):
        network.add_link(f"lan{index}", latency=1.0, jitter=0.0, loss=loss)
    for name in ("a", "b", "c"):
        network.add_node(name)
        for index in range(links):
            network.attach(name, f"lan{index}")
    return kernel, network


def test_basic_delivery_with_latency():
    kernel, network = build()
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append((kernel.now, m.payload)))
    assert network.send("a", "b", "svc", {"x": 1})
    kernel.run()
    assert received == [(1.0, {"x": 1})]


def test_delivery_to_closed_port_is_dropped():
    kernel, network = build()
    network.send("a", "b", "nothing-bound", "data")
    kernel.run()
    assert network.delivered_count == 0
    assert network.dropped_count == 1


def test_unbind_stops_delivery():
    kernel, network = build()
    received = []
    network.nodes["b"].bind("svc", received.append)
    network.nodes["b"].unbind("svc")
    network.send("a", "b", "svc", "data")
    kernel.run()
    assert received == []


def test_powered_off_receiver_gets_nothing():
    kernel, network = build()
    received = []
    network.nodes["b"].bind("svc", received.append)
    network.nodes["b"].powered = False
    assert network.usable_path("a", "b") is None
    network.send("a", "b", "svc", "data")
    kernel.run()
    assert received == []


def test_power_off_in_flight_drops_frame():
    kernel, network = build()
    received = []
    network.nodes["b"].bind("svc", received.append)
    network.send("a", "b", "svc", "data")
    network.nodes["b"].powered = False  # dies while frame is in flight
    kernel.run()
    assert received == []


def test_link_down_in_flight_drops_frame():
    kernel, network = build()
    received = []
    network.nodes["b"].bind("svc", received.append)
    network.send("a", "b", "svc", "data")
    network.links["lan0"].up = False  # the segment fails while the frame is in flight
    kernel.run()
    assert received == []
    assert (network.delivered_count, network.dropped_count) == (0, 1)
    reasons = [record.detail["reason"] for record in network.trace if record.event == "deliver-failed"]
    assert reasons == ["link-down"]


def test_lossy_link_drops_some_frames():
    kernel, network = build(seed=5, loss=0.5)
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m))
    for _ in range(200):
        network.send("a", "b", "svc", "x")
    kernel.run()
    assert 40 < len(received) < 160  # roughly half, seeded


def test_dual_network_survives_single_nic_failure():
    kernel, network = build(links=2)
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m.link))
    network.nodes["a"].nic_down("lan0")
    network.send("a", "b", "svc", "x")
    kernel.run()
    assert received == ["lan1"]


def test_dual_network_survives_link_failure():
    kernel, network = build(links=2)
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m.link))
    network.links["lan0"].up = False
    network.send("a", "b", "svc", "x")
    kernel.run()
    assert received == ["lan1"]


def test_no_path_when_both_links_down():
    kernel, network = build(links=2)
    network.links["lan0"].up = False
    network.nodes["a"].nic_down("lan1")
    assert not network.send("a", "b", "svc", "x")


def test_partition_blocks_cross_group_traffic():
    kernel, network = build()
    controller = PartitionController(network)
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m))
    network.nodes["c"].bind("svc", lambda m: received.append(m))
    controller.split("lan0", ["a"], ["b", "c"])
    network.send("a", "b", "svc", "x")
    network.send("b", "c", "svc", "y")  # same side still works
    kernel.run()
    assert len(received) == 1
    controller.heal("lan0")
    network.send("a", "b", "svc", "x2")
    kernel.run()
    assert len(received) == 2


def test_partition_isolate_and_heal_all():
    kernel, network = build(links=2)
    controller = PartitionController(network)
    controller.split_all(["a"], ["b", "c"])
    assert network.usable_path("a", "b") is None
    controller.heal_all()
    assert network.usable_path("a", "b") is not None


def test_duplicate_node_and_link_rejected():
    kernel, network = build()
    with pytest.raises(SimError):
        network.add_node("a")
    with pytest.raises(SimError):
        network.add_link("lan0")


def test_double_attach_rejected():
    kernel, network = build()
    with pytest.raises(SimError):
        network.attach("a", "lan0")


def test_bandwidth_adds_serialisation_delay():
    kernel = SimKernel()
    network = Network(kernel, RngStreams(0))
    network.add_link("lan", latency=1.0, jitter=0.0, bandwidth=100.0)  # bytes/ms
    for name in ("a", "b"):
        network.add_node(name)
        network.attach(name, "lan")
    times = []
    network.nodes["b"].bind("svc", lambda m: times.append(kernel.now))
    network.send("a", "b", "svc", "x", size=1000)
    kernel.run()
    assert times == [1.0 + 10.0]


def test_unduplicated_frame_delivers_the_payload_object_sent():
    kernel, network = build()
    payload = {"rows": [[1, 2.0], [3, 4.0]], "tag": ("a", [5])}
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m.payload))
    network.send("a", "b", "svc", payload)
    kernel.run()
    assert network.duplicated_count == 0
    assert len(received) == 1 and received[0] is payload


def test_duplicated_frame_carries_its_own_copy_of_the_payload():
    kernel, network = build()
    network.set_duplication("lan0", 1.0)
    payload = {"rows": [[1, 2.0], [3, 4.0]], "tag": ("a", [5])}
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m.payload))
    network.send("a", "b", "svc", payload)
    kernel.run()
    assert network.duplicated_count == 1
    original, duplicate = received
    assert original is payload
    assert duplicate == original and duplicate is not original
    for key in ("rows", "tag"):
        assert duplicate[key] is not original[key]
    assert duplicate["rows"][1] is not original["rows"][1]
    assert duplicate["tag"][1] is not original["tag"][1]


def test_duplicate_payload_is_copied_at_send_time():
    kernel, network = build()
    network.set_duplication("lan0", 1.0)
    payload = {"rows": [[1, 2.0]]}
    received = []
    network.nodes["b"].bind("svc", lambda m: received.append(m.payload))
    network.send("a", "b", "svc", payload)
    payload["rows"][0].append("after send")
    kernel.run()
    assert received[1] == {"rows": [[1, 2.0]]}
