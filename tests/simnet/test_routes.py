"""Route-table oracle: the cached routes always equal a search over raw state.

``Network`` keeps one ``(source, dest) -> Link | None`` table and relies
on every topology writer to clear it.  These tests drive each writer in
seeded random order and, after every step, compare ``usable_path``,
``path_ok`` and where ``send`` actually puts a frame against
:func:`reference_path`, which recomputes the route from the nodes'
power and NIC flags, the segments' ``up`` flags and the partition table
with no cache at all.  A writer that forgot to clear the table leaves a
stale route behind, and the next comparison catches it.
"""

import random

import pytest

from repro.apps.synthetic import SyntheticStateApp
from repro.faults import HealNetwork, LinkDown, NetworkPartition, NicDown
from repro.harness.scenario import build_pair_env
from repro.simnet.kernel import SimKernel
from repro.simnet.network import Network
from repro.simnet.partitions import PartitionController
from repro.simnet.random import RngStreams

PROBE = "route.probe"


def reference_path(network, source, dest):
    """The route search over raw state, with no table."""
    src = network.nodes.get(source)
    dst = network.nodes.get(dest)
    if src is None or dst is None or not src.powered or not dst.powered:
        return None
    src_links = {name for name, up in src.nics.items() if up}
    dst_links = {name for name, up in dst.nics.items() if up}
    for name in sorted(src_links & dst_links):
        groups = network.partition_of.get(name) or {}
        if network.links[name].up and groups.get(source, 0) == groups.get(dest, 0):
            return network.links[name]
    return None


def check_routes(network, names, flush):
    """Compare every ordered pair of *names* against the reference.

    Each pair also sends one probe frame; *flush* runs the kernel long
    enough to deliver it, and the frames that arrive (with the segment
    they travelled) must be exactly the ones the reference routes.
    """
    arrived = []
    for node in network.nodes.values():
        node.bind(PROBE, lambda message: arrived.append((message.source, message.dest, message.link)))
    expected = []
    for source in names:
        for dest in names:
            want = reference_path(network, source, dest)
            blocked = (source, dest) in network.blocked_pairs
            context = (source, dest, want)
            assert network.usable_path(source, dest) is want, context
            assert network.path_ok(source, dest) == (want is not None and not blocked), context
            assert network.send(source, dest, PROBE, None) == (want is not None), context
            if want is not None and not blocked:
                expected.append((source, dest, want.name))
    flush()
    assert sorted(arrived) == sorted(expected)


def build_random_network(seed):
    kernel = SimKernel()
    network = Network(kernel, RngStreams(seed))
    for index in range(3):
        network.add_link(f"l{index}", latency=1.0, jitter=0.0)
    memberships = {"n0": ("l0", "l1"), "n1": ("l0", "l1", "l2"), "n2": ("l1", "l2"), "n3": ("l2",)}
    for name, links in memberships.items():
        network.add_node(name)
        for link in links:
            network.attach(name, link)
    return kernel, network


WRITERS = ["powered", "link-up", "nic", "split", "isolate", "heal", "heal-all", "add-node", "add-link", "attach", "block"]
#: Step kinds that can change a route; "add-node" (a node with no NIC
#: joins no route) and "block" (not part of a route) cannot.
ROUTE_WRITERS = {"powered", "link-up", "nic-up", "nic-down", "split", "isolate", "heal", "heal-all", "add-link", "attach"}


def pick_to_flip(rng, items, is_up):
    """Mostly bring something back up, so the network stays mostly connected
    and most writes change a live route."""
    down = [item for item in items if not is_up(item)]
    return rng.choice(down if down and rng.random() < 0.7 else items)


def members(network, link):
    """The nodes with a NIC on *link*, by name."""
    return [name for name in sorted(network.nodes) if link in network.nodes[name].nics]


def random_step(rng, network, controller, counter):
    """Apply one randomly chosen topology write; return its label."""
    nodes = sorted(network.nodes)
    links = sorted(network.links)
    kind = rng.choice(WRITERS)
    if kind == "powered":
        node = network.nodes[pick_to_flip(rng, nodes, lambda name: network.nodes[name].powered)]
        node.powered = not node.powered
    elif kind == "link-up":
        link = network.links[pick_to_flip(rng, links, lambda name: network.links[name].up)]
        link.up = not link.up
    elif kind == "nic":
        nics = [(name, link) for name in nodes for link in sorted(network.nodes[name].nics)]
        name, link = pick_to_flip(rng, nics, lambda nic: network.nodes[nic[0]].nics[nic[1]])
        node = network.nodes[name]
        if node.nics[link]:
            node.nic_down(link)
            return "nic-down"
        node.nic_up(link)
        return "nic-up"
    elif kind == "split":
        link = rng.choice(links)
        on_link = members(network, link)
        rng.shuffle(on_link)
        cut = rng.randint(0, len(on_link))
        controller.split(link, on_link[:cut], on_link[cut:])
    elif kind == "isolate":
        link = rng.choice(links)
        on_link = members(network, link)
        if not on_link:
            return "isolate-skip"
        lonely = rng.choice(on_link)
        controller.split(link, [lonely], [member for member in on_link if member != lonely])
    elif kind == "heal":
        controller.heal(rng.choice(sorted(network.partition_of) or links))
    elif kind == "heal-all":
        controller.heal_all()
    elif (kind == "add-node" and len(network.nodes) >= 6) or (kind == "add-link" and len(network.links) >= 5):
        return "grow-skip"  # stay small, so most writes touch a live route
    elif kind == "add-node":
        network.add_node(f"x{counter}")
    elif kind == "add-link":
        name = f"a{counter}"  # sorts before "l0": the pair's preferred segment
        network.add_link(name, latency=1.0, jitter=0.0)
        for node in rng.sample(nodes, 2):
            network.attach(node, name)
    elif kind == "attach":
        free = [(node, link) for node in nodes for link in links if link not in network.nodes[node].nics]
        if not free:
            return "attach-skip"
        network.attach(*rng.choice(free))
    else:
        source, dest = rng.choice(nodes), rng.choice(nodes)
        if rng.random() < 0.15 or (source, dest) in network.blocked_pairs:
            network.clear_blocks()
        else:
            network.block_direction(source, dest)
    return kind


def reference_routes(network, names):
    return {(source, dest): reference_path(network, source, dest) for source in names for dest in names}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_route_table_matches_reference_under_random_writes(seed):
    rng = random.Random(seed)
    kernel, network = build_random_network(seed)
    controller = PartitionController(network)
    changed_routes = set()
    for step in range(200):
        # "x{step}" is unknown until an add-node step creates it, so the
        # table also caches misses for names that later become nodes.
        names = sorted(network.nodes) + [f"x{step}", "ghost"]
        check_routes(network, names, kernel.run)
        before = reference_routes(network, names)
        kind = random_step(rng, network, controller, step)
        if reference_routes(network, names) != before:
            changed_routes.add(kind)
    check_routes(network, sorted(network.nodes) + ["ghost"], kernel.run)
    # Every route writer changed some already-cached route at least once,
    # so a writer that skipped the clear would have left a stale entry.
    assert changed_routes == ROUTE_WRITERS


def test_route_table_follows_nt_and_fault_writers():
    scenario = build_pair_env(seed=7, app_factory=lambda: SyntheticStateApp(cold_kb=1), dual_lan=True)
    scenario.start()
    network = scenario.network
    names = ["alpha", "beta", "ghost"]

    def check():
        check_routes(network, names, lambda: scenario.run_for(20.0))

    check()
    steps = [
        lambda: scenario.systems["beta"].power_off(),
        lambda: scenario.systems["beta"].boot(),
        lambda: scenario.run_for(5_000.0),
        lambda: scenario.systems["alpha"].bluescreen(),
        lambda: scenario.systems["alpha"].boot(),
        lambda: scenario.run_for(5_000.0),
        lambda: LinkDown("lan0").apply(scenario),
        lambda: NicDown("alpha", "lan1").apply(scenario),
        lambda: network.nodes["alpha"].nic_up("lan1"),
        lambda: NetworkPartition(["alpha"], ["beta"]).apply(scenario),
        lambda: network.block_direction("beta", "alpha"),
        lambda: HealNetwork().apply(scenario),
        lambda: setattr(network.links["lan0"], "up", True),
        lambda: scenario.systems["alpha"].power_off(),
        lambda: scenario.systems["alpha"].boot_immediately(),
    ]
    for step in steps:
        step()
        check()
    assert network.usable_path("alpha", "beta").name == "lan0"
