"""Simulated Ethernet / TCP-IP network.

The paper's reference configurations pair redundant computers "via one or
dual Ethernet networks" (Figure 1).  This module models:

* :class:`Network` — the whole fabric: segments, nodes, delivery.
* :class:`Link` — a LAN segment with latency, jitter and loss.
* :class:`NetNode` — a host with one NIC per attached segment and
  port-based receive dispatch (a tiny UDP-like service model).

Failure realism: a powered-off node neither sends nor receives; a NIC can
be taken down individually (dual-network experiments); segments can be
partitioned via :class:`repro.simnet.partitions.PartitionController`; and
messages may be dropped by per-segment loss probability.

Chaos extensions (used by :mod:`repro.faults` / :mod:`repro.chaos`):

* *asymmetric partitions* — per-direction ``(source, dest)`` blocks, so
  A can reach B while B cannot reach A;
* *frame corruption* — per-link probability that a frame fails its
  checksum on delivery and is discarded (detected corruption);
* *frame duplication* — per-link probability that a frame is delivered
  twice (retry races at the switch level).  The duplicate is a distinct
  frame: it draws its own delay and carries its own deep copy of the
  payload, taken at send time, so the two deliveries share no object
  and an unduplicated frame is never copied;
* *egress delay* — per-node extra latency on every outgoing frame,
  modelling fail-slow ("gray") hosts and inter-node clock skew as seen
  from the wire.

All of these draw randomness lazily from the network RNG stream only
while enabled, so runs that never inject them keep their exact
pre-existing draw sequence.

Route table: the segment a frame travels between two nodes changes only
when the topology does, a few dozen times per run, while frames number
in the thousands.  :class:`Network` therefore keeps one
``{(source, dest): Link | None}`` table that :meth:`Network.send`,
:meth:`Network.usable_path` and :meth:`Network.path_ok` read; a miss
runs the search (shared NICs in link-name order, the first segment that
is up and not partitioned) and stores its answer, ``None`` included.
Every write that can change a route goes through a writer that clears
the table: the ``NetNode.powered`` and ``Link.up`` setters,
:meth:`NetNode.nic_up`, :meth:`NetNode.nic_down`, :meth:`Network.attach`
and :meth:`Network.set_partition`.  Topology state is never written
around them.  Directional blocks are not part of a route (``send``,
``path_ok`` and delivery check them separately), and a new node or
segment joins no route until :meth:`Network.attach`.

In-flight faults: a frame is dropped on delivery if, while it was in
flight, its receiver lost power, the receiver's NIC or the segment
itself went down, or a partition or directional block cut the pair.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SimError
from repro.simnet.kernel import SimKernel
from repro.simnet.random import RngStreams
from repro.simnet.trace import TraceLog

Handler = Callable[["Message"], None]

_MISS = object()  # route-table default: a stored None means "no route"


@dataclass(slots=True)
class Message:
    """A datagram on the simulated network.

    ``slots=True``: one instance per simulated datagram on the
    ``Network.send`` hot path (HOT005 dogfood).
    """

    source: str
    dest: str
    port: str
    payload: Any
    size: int = 128
    link: str = ""
    sent_at: float = 0.0
    delivered_at: float = 0.0


class Link:
    """A LAN segment.  All attached NICs can reach each other through it."""

    def __init__(
        self,
        name: str,
        latency: float = 0.5,
        jitter: float = 0.1,
        loss: float = 0.0,
        bandwidth: float = 0.0,
    ) -> None:
        """
        Parameters
        ----------
        latency:
            Base one-way delay (simulated ms).
        jitter:
            Uniform extra delay in ``[0, jitter]``.
        loss:
            Probability a frame is silently dropped.
        bandwidth:
            Bytes per simulated ms; 0 means infinite (no serialisation
            delay).  When set, delay grows by ``size / bandwidth``.
        """
        self.name = name
        self.latency = latency
        self.jitter = jitter
        self.loss = loss
        self.bandwidth = bandwidth
        self.network: Optional["Network"] = None  # set by Network.add_link
        self._up = True

    @property
    def up(self) -> bool:
        """Whether the segment carries frames."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = value
        if self.network is not None:
            self.network._routes.clear()

    def delay_for(self, size: int, rng) -> float:
        """Sample the one-way delay for a frame of *size* bytes.

        ``jitter * rng.random()`` is bit for bit what
        ``rng.uniform(0.0, jitter)`` returns, one call cheaper.
        """
        delay = self.latency
        if self.jitter > 0:
            delay += self.jitter * rng.random()
        if self.bandwidth > 0:
            delay += size / self.bandwidth
        return delay

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Link({self.name}, {state})"


class NetNode:
    """A host on the network.

    Receive dispatch is by *port* (a string naming a service, e.g.
    ``"oftt.heartbeat"`` or ``"msq.transport"``).
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self._powered = True
        self.nics: Dict[str, bool] = {}  # link name -> nic up?
        self._handlers: Dict[str, Handler] = {}

    @property
    def powered(self) -> bool:
        """Whether the host is on (a powered-off host neither sends nor receives)."""
        return self._powered

    @powered.setter
    def powered(self, value: bool) -> None:
        self._powered = value
        self.network._routes.clear()

    # -- service registration ---------------------------------------------

    def bind(self, port: str, handler: Handler) -> None:
        """Register *handler* for datagrams addressed to *port*."""
        self._handlers[port] = handler

    def unbind(self, port: str) -> None:
        """Remove the handler for *port* (idempotent)."""
        self._handlers.pop(port, None)

    def handler_for(self, port: str) -> Optional[Handler]:
        """The bound handler, or None if the port is closed."""
        return self._handlers.get(port)

    # -- NIC control --------------------------------------------------------

    def nic_up(self, link_name: str) -> None:
        """Re-enable the NIC attached to *link_name*."""
        if link_name not in self.nics:
            raise SimError(f"{self.name} has no NIC on {link_name}")
        self.nics[link_name] = True
        self.network._routes.clear()

    def nic_down(self, link_name: str) -> None:
        """Disable the NIC attached to *link_name*."""
        if link_name not in self.nics:
            raise SimError(f"{self.name} has no NIC on {link_name}")
        self.nics[link_name] = False
        self.network._routes.clear()

    def reachable_links(self) -> List[str]:
        """Names of links this node can currently use."""
        if not self.powered:
            return []
        return [name for name, up in self.nics.items() if up]

    def send(self, dest: str, port: str, payload: Any, size: int = 128) -> bool:
        """Convenience wrapper over :meth:`Network.send`."""
        return self.network.send(self.name, dest, port, payload, size=size)

    def __repr__(self) -> str:
        state = "on" if self.powered else "off"
        return f"NetNode({self.name}, {state}, nics={self.nics})"


class Network:
    """The network fabric: creates nodes/links and routes datagrams.

    Redundant paths: when source and destination share several usable
    segments, the message travels the first healthy one (deterministic
    order by link name), which models the paper's dual-Ethernet pairing —
    taking one NIC or segment down leaves connectivity intact.
    """

    def __init__(self, kernel: SimKernel, rng: Optional[RngStreams] = None, trace: Optional[TraceLog] = None) -> None:
        self.kernel = kernel
        self.rng = (rng or RngStreams(0)).stream("network")
        self.trace = trace if trace is not None else TraceLog(clock=lambda: kernel.now)
        self.nodes: Dict[str, NetNode] = {}
        self.links: Dict[str, Link] = {}
        self.partition_of: Dict[str, Dict[str, int]] = {}  # link -> node -> group
        # -- chaos state (see module docstring) --
        self.blocked_pairs: Set[Tuple[str, str]] = set()  # (source, dest) directional blocks
        self.corrupt_prob: Dict[str, float] = {}  # link -> P(frame corrupted)
        self.dup_prob: Dict[str, float] = {}  # link -> P(frame duplicated)
        self.egress_delay: Dict[str, float] = {}  # node -> extra outgoing latency
        self.delivered_count = 0
        self.dropped_count = 0
        self.corrupted_count = 0
        self.duplicated_count = 0
        # TCP-like per-channel ordering: frames between the same
        # (source, dest, port) never overtake each other, even under
        # jitter.  Loss still re-orders *content* at higher layers.
        self._channel_clock: Dict[Any, float] = {}
        # (source, dest) -> first usable segment or None; cleared by every
        # topology writer (see module docstring).
        self._routes: Dict[Tuple[str, str], Optional[Link]] = {}

    # -- topology -----------------------------------------------------------

    def add_node(self, name: str) -> NetNode:
        """Create a node (error if the name is taken)."""
        if name in self.nodes:
            raise SimError(f"duplicate node {name}")
        node = NetNode(self, name)
        self.nodes[name] = node
        return node

    def add_link(self, name: str, **kwargs: Any) -> Link:
        """Create a LAN segment (error if the name is taken)."""
        if name in self.links:
            raise SimError(f"duplicate link {name}")
        link = Link(name, **kwargs)
        link.network = self
        self.links[name] = link
        return link

    def attach(self, node_name: str, link_name: str) -> None:
        """Plug a node's NIC into a segment."""
        node = self.nodes[node_name]
        link = self.links[link_name]
        if link_name in node.nics:
            raise SimError(f"{node_name} already attached to {link_name}")
        node.nics[link_name] = True
        self._routes.clear()

    # -- partitions (used by PartitionController) ----------------------------

    def set_partition(self, link_name: str, groups: Dict[str, int]) -> None:
        """Assign nodes on *link_name* to partition groups.

        Nodes in different groups cannot exchange frames on that segment.
        An empty mapping heals the partition and drops the segment's
        entry, so a healed network skips the partition checks again.
        """
        if link_name not in self.links:
            raise SimError(f"no such link {link_name}")
        if groups:
            self.partition_of[link_name] = dict(groups)
        else:
            self.partition_of.pop(link_name, None)
        self._routes.clear()

    def _partitioned(self, link_name: str, a: str, b: str) -> bool:
        groups = self.partition_of.get(link_name)
        if not groups:
            return False
        return groups.get(a, 0) != groups.get(b, 0)

    # -- chaos controls (asymmetric blocks, corruption, duplication, delay) ---

    def block_direction(self, source: str, dest: str) -> None:
        """Drop every frame travelling *source* -> *dest* (one-way)."""
        self.blocked_pairs.add((source, dest))

    def clear_blocks(self) -> None:
        """Lift every directional block."""
        self.blocked_pairs.clear()

    def set_corruption(self, link_name: str, probability: float) -> None:
        """Corrupt frames on *link_name* with *probability* (0 disables).

        Corruption is *detected*: the frame fails its checksum at the
        receiver and is discarded (traced as ``frame-corrupted``), so the
        effect is loss that reliability layers must absorb via retry.
        """
        if link_name not in self.links:
            raise SimError(f"no such link {link_name}")
        if probability <= 0.0:
            self.corrupt_prob.pop(link_name, None)
        else:
            self.corrupt_prob[link_name] = min(1.0, probability)

    def set_duplication(self, link_name: str, probability: float) -> None:
        """Duplicate frames on *link_name* with *probability* (0 disables)."""
        if link_name not in self.links:
            raise SimError(f"no such link {link_name}")
        if probability <= 0.0:
            self.dup_prob.pop(link_name, None)
        else:
            self.dup_prob[link_name] = min(1.0, probability)

    def set_egress_delay(self, node_name: str, delay: float) -> None:
        """Add *delay* to every frame *node_name* sends (0 removes).

        Models a fail-slow host (gray failure) or a node whose skewed
        clock makes its periodic traffic arrive late relative to peer
        timeouts.
        """
        if node_name not in self.nodes:
            raise SimError(f"no such node {node_name}")
        if delay <= 0.0:
            self.egress_delay.pop(node_name, None)
        else:
            self.egress_delay[node_name] = delay

    def path_ok(self, source: str, dest: str) -> bool:
        """Whether a frame sent now from *source* would reach *dest*.

        Combines :meth:`usable_path` with the directional block table —
        the check invariant monitors use to decide whether connectivity
        between two nodes is nominally healthy.
        """
        if self.blocked_pairs and (source, dest) in self.blocked_pairs:
            return False
        link = self._routes.get((source, dest), _MISS)
        if link is _MISS:
            link = self.usable_path(source, dest)
        return link is not None

    # -- delivery -------------------------------------------------------------

    def usable_path(self, source: str, dest: str) -> Optional[Link]:
        """First healthy segment shared by *source* and *dest*, else None."""
        key = (source, dest)
        link = self._routes.get(key, _MISS)
        if link is _MISS:
            link = self._routes[key] = self._search_route(source, dest)
        return link

    def _search_route(self, source: str, dest: str) -> Optional[Link]:
        src = self.nodes.get(source)
        dst = self.nodes.get(dest)
        if src is None or dst is None or not src.powered or not dst.powered:
            return None
        src_links = set(src.reachable_links())
        dst_links = set(dst.reachable_links())
        for link_name in sorted(src_links & dst_links):
            link = self.links[link_name]
            if link.up and not self._partitioned(link_name, source, dest):
                return link
        return None

    def send(self, source: str, dest: str, port: str, payload: Any, size: int = 128) -> bool:
        """Transmit a datagram.

        Returns True if the frame was put on the wire (it may still be
        lost), False if no usable path exists right now.  Delivery is
        best-effort datagram semantics; reliability is built above (MSMQ,
        DCOM RPC retries).
        """
        link = self._routes.get((source, dest), _MISS)
        if link is _MISS:
            link = self.usable_path(source, dest)
        if link is None:
            self.dropped_count += 1
            self.trace.emit("net", source, "send-failed", dest=dest, port=port)
            return False
        if self.blocked_pairs and (source, dest) in self.blocked_pairs:
            # Asymmetric partition: the frame leaves the NIC but never
            # arrives; the sender cannot tell (datagram semantics).
            self.dropped_count += 1
            self.trace.emit("net", source, "frame-blocked", dest=dest, port=port, link=link.name)
            return True
        rng = self.rng
        if link.loss > 0 and rng.random() < link.loss:
            self.dropped_count += 1
            self.trace.emit("net", source, "frame-lost", dest=dest, port=port, link=link.name)
            return True
        if self.corrupt_prob:
            corrupt_prob = self.corrupt_prob.get(link.name, 0.0)
            if corrupt_prob > 0 and rng.random() < corrupt_prob:
                # Detected corruption: the checksum fails at the receiver
                # and the frame is discarded there, one latency later.
                self.corrupted_count += 1
                self.dropped_count += 1
                self.trace.emit("net", source, "frame-corrupted", dest=dest, port=port, link=link.name)
                return True
        now = self.kernel.now
        egress = self.egress_delay.get(source, 0.0) if self.egress_delay else 0.0
        channel = (source, dest, port)
        clock = self._channel_clock
        deliver_at = max(now + (link.delay_for(size, rng) + egress), clock.get(channel, 0.0))
        clock[channel] = deliver_at
        self.kernel.schedule(
            deliver_at - now, self._deliver, Message(source, dest, port, payload, size, link.name, now)
        )
        if self.dup_prob:
            dup_prob = self.dup_prob.get(link.name, 0.0)
            if dup_prob > 0 and rng.random() < dup_prob:
                # The duplicate is a distinct frame with its own delay draw,
                # clamped to the channel clock so per-channel FIFO still holds,
                # and its own copy of the payload.
                self.duplicated_count += 1
                self.trace.emit("net", source, "frame-duplicated", dest=dest, port=port, link=link.name)
                dup_at = max(now + (link.delay_for(size, rng) + egress), clock[channel])
                clock[channel] = dup_at
                twin = copy.deepcopy(payload)  # oftt-lint: ok[hot-unmemoized-heavy] -- duplicated frames only
                self.kernel.schedule(
                    dup_at - now, self._deliver, Message(source, dest, port, twin, size, link.name, now)
                )
        return True

    def _deliver(self, message: Message) -> None:
        node = self.nodes.get(message.dest)
        if node is None or not node._powered:
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="node-down")
            return
        # The receiver's NIC or the segment may have gone down in flight.
        if not node.nics.get(message.link, False):
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="nic-down")
            return
        if not self.links[message.link]._up:
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="link-down")
            return
        if self.partition_of and self._partitioned(message.link, message.source, message.dest):
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="partition")
            return
        if self.blocked_pairs and (message.source, message.dest) in self.blocked_pairs:
            # Directional block raised while the frame was in flight.
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="asym-block")
            return
        handler = node._handlers.get(message.port)
        if handler is None:
            self.dropped_count += 1
            self.trace.emit("net", message.dest, "deliver-failed", port=message.port, reason="port-closed")
            return
        message.delivered_at = self.kernel.now
        self.delivered_count += 1
        handler(message)

    def __repr__(self) -> str:
        return f"Network(nodes={sorted(self.nodes)}, links={sorted(self.links)})"
