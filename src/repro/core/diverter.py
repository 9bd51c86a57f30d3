"""The Message Diverter (§2.2.3).

"The Message Diverter allows the primary/backup nodes to be a consistent
logic unit that interacts with other applications and handles all I/O
messages to and from applications, and diverts messages to the correct
node.  The current implementation uses Microsoft Message Queue.  ...  If
a message is sent during a switchover, the message non-delivery is
detected and retried."

Two halves:

* :class:`MessageDiverter` — the pair-side logical unit descriptor plus a
  helper for applications to open/consume their inbox queue.
* :class:`DiverterClient` — used by *external* applications (the test PC
  in Figure 3): addresses the logical unit, tracks which node is
  currently primary via the engines' role-change notifications, and
  re-targets unacknowledged MSMQ messages on switchover.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import DIVERTER_PORT
from repro.msq.manager import QueueManager
from repro.msq.queue import MsmqQueue, QueueMessage
from repro.simnet.network import Message, NetNode
from repro.simnet.trace import TraceLog


def inbox_queue_name(unit: str) -> str:
    """The per-node inbox queue for logical unit *unit*."""
    return f"oftt.{unit}.inbox"


class MessageDiverter:
    """Pair-side view of one logical unit."""

    def __init__(self, unit: str, node_a: str, node_b: str) -> None:
        self.unit = unit
        self.nodes = (node_a, node_b)
        self.queue_name = inbox_queue_name(unit)

    def open_inbox(self, qmgr: QueueManager) -> MsmqQueue:
        """Create/open this unit's inbox on a member node."""
        return qmgr.create_queue(self.queue_name)

    def __repr__(self) -> str:
        return f"MessageDiverter({self.unit}, nodes={self.nodes})"


class DiverterClient:
    """External-sender side of the diverter.

    Messages are sent through the local :class:`QueueManager`'s
    store-and-forward transport towards the believed primary.  Until the
    primary is known, messages are buffered.  On a role-change
    notification the client re-targets both buffered and in-flight
    (unacknowledged) messages — the "non-delivery is detected and
    retried" behaviour.

    With ``mirror=(node, queue)`` set, every message is *also* logged to
    that queue at send time (sender-based message logging, arxiv
    0911.3092): unlike the pair-side inbox, the mirror survives
    total pair loss, so a disaster-recovery site can replay it.  Mirror
    copies go out immediately even while the primary is unknown and the
    original sits in the buffer.
    """

    def __init__(
        self,
        node: NetNode,
        qmgr: QueueManager,
        unit: str,
        pair_nodes: List[str],
        trace: Optional[TraceLog] = None,
        mirror: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.node = node
        self.qmgr = qmgr
        self.unit = unit
        self.pair_nodes = list(pair_nodes)
        self.trace = trace if trace is not None else TraceLog()
        self.primary: Optional[str] = None
        self.queue_name = inbox_queue_name(unit)
        self.mirror = mirror
        self._buffer: List[Any] = []
        self.sent_count = 0
        self.redirect_count = 0
        self._listeners: List[Callable[[str], None]] = []
        node.bind(DIVERTER_PORT, self._on_notice)

    # -- primary tracking ----------------------------------------------------------

    def _on_notice(self, message: Message) -> None:
        payload = message.payload
        if payload.get("kind") != "role-change":
            return
        if payload["node"] not in self.pair_nodes:
            return
        if payload["role"] == "primary":
            self._set_primary(payload["node"])
        elif payload["role"] == "backup" and self.primary == payload["node"]:
            # Demotion notice: the peer should announce itself shortly;
            # until then we have no primary.
            self.primary = None

    def _set_primary(self, node_name: str) -> None:
        previous = self.primary
        self.primary = node_name
        if previous == node_name:
            return
        self.trace.emit("diverter", self.node.name, "primary-changed", old=previous, new=node_name)
        if previous is not None:
            # Re-target messages still waiting on an ack from the old node.
            self.redirect_count += self.qmgr.redirect_pending(previous, node_name)
        self._flush_buffer()
        for listener in self._listeners:
            listener(node_name)

    def on_primary_change(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired when the believed primary changes."""
        # Registration API, not an event handler (despite the on_ name):
        # one append per listener registered at setup, bounded by callers.
        self._listeners.append(listener)  # oftt-lint: ok[unbounded-growth]

    # -- sending ------------------------------------------------------------------------

    def send(self, body: Any, label: str = "") -> None:
        """Send *body* to the logical unit (buffered until primary known)."""
        if self.mirror is not None:
            mirror_node, mirror_queue = self.mirror
            self.qmgr.send(
                mirror_node, mirror_queue, {"kind": "msg", "body": body}, persistent=True, label="dr-log"
            )
        if self.primary is None:
            self._buffer.append((body, label))
            return
        self.qmgr.send(self.primary, self.queue_name, body, persistent=True, label=label)
        self.sent_count += 1

    def _flush_buffer(self) -> None:
        if self.primary is None:
            return
        buffered, self._buffer = self._buffer, []
        for body, label in buffered:
            self.qmgr.send(self.primary, self.queue_name, body, persistent=True, label=label)
            self.sent_count += 1

    def __repr__(self) -> str:
        return f"DiverterClient({self.unit} from {self.node.name}, primary={self.primary})"
