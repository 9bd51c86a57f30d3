"""Per-node queue manager with store-and-forward transport.

The manager is the MSMQ service: it owns the node's queues, accepts sends
addressed to ``node/queue``, and reliably forwards messages to remote
managers — storing them in an outgoing journal and retrying until the
destination acknowledges receipt.  Duplicate deliveries (retry races) are
suppressed by message-id at the receiving queue.

Crash semantics: the manager's state is "on disk" — it survives OS crashes
and reboots of its node (persistent messages included); express messages
are purged on :meth:`on_crash`.  While the node is down the service does
not answer, so senders keep retrying, which is precisely the mechanism the
Diverter leans on during a switchover.

Retry cadence: each outgoing message backs off exponentially —
``min(retry_interval * backoff**(attempts-1), max_retry_interval)`` plus
uniform seeded jitter — so a sustained partition does not hammer the wire
at a fixed rate.  ``backoff_factor=1.0`` with zero jitter reproduces the
original fixed cadence.  Jitter draws come from the network's sim RNG
stream and only happen when jitter is enabled, keeping seed replay
intact either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import MsqError, QueueNotFound
from repro.msq.queue import MsmqQueue, QueueMessage
from repro.simnet.kernel import SimKernel
from repro.simnet.network import Message, NetNode, Network

MSQ_PORT = "msq.transport"

#: Name of the per-node dead-letter queue (always present).
DEAD_LETTER_QUEUE = "system$deadletter"

#: Time to live (ms) of a remote send that names no ``ttl``: past it the
#: unacknowledged message is dead-lettered.
MESSAGE_TTL = 60_000.0


@dataclass(slots=True)
class _OutgoingEntry:
    """A message awaiting acknowledgement from its destination node."""

    message: QueueMessage
    dest_node: str
    dest_queue: str
    attempts: int
    next_retry_at: float
    expires_at: float


class QueueManager:
    """The MSMQ service for one node."""

    def __init__(
        self,
        kernel: SimKernel,
        network: Network,
        node: NetNode,
        retry_interval: float = 250.0,
        backoff_factor: float = 1.0,
        max_retry_interval: Optional[float] = None,
        retry_jitter: float = 0.0,
    ) -> None:
        if backoff_factor < 1.0:
            raise MsqError(f"backoff_factor must be at least 1.0, got {backoff_factor}")
        if retry_jitter < 0.0:
            raise MsqError(f"retry_jitter must be non-negative, got {retry_jitter}")
        self.kernel = kernel
        self.network = network
        self.node = node
        self.retry_interval = retry_interval
        self.backoff_factor = backoff_factor
        self.max_retry_interval = max_retry_interval if max_retry_interval is not None else retry_interval
        if self.max_retry_interval < retry_interval:
            raise MsqError("max_retry_interval must be at least retry_interval")
        self.retry_jitter = retry_jitter
        self.queues: Dict[str, MsmqQueue] = {}
        self.outgoing: Dict[str, _OutgoingEntry] = {}
        # Message ids must be unique per sending node even across a node
        # reinstall (receivers dedup on seen ids), so the id carries the
        # manager's creation epoch: a replacement manager — necessarily
        # created at a later sim time — can never reuse a predecessor's
        # ids.  An instance counter alone would restart at 1 and collide;
        # the old class-level counter avoided that but leaked across
        # scenarios, so identical-seed runs produced different ids.
        self._msg_epoch = int(kernel.now)
        self._msg_counter = itertools.count(1)
        self.service_up = True
        self.stats = {"sent": 0, "delivered_local": 0, "acked": 0, "retries": 0, "dead_lettered": 0}
        self.create_queue(DEAD_LETTER_QUEUE)
        # Bound once so identity comparisons against the node's handler
        # table work (each ``self._on_message`` access builds a new object).
        self._bound_handler = self._on_message
        node.bind(MSQ_PORT, self._bound_handler)
        self._retry_timer = kernel.schedule(self.retry_interval, self._retry_pass)

    def stop(self) -> None:
        """Retire this manager: release the retry timer immediately.

        A replaced manager (node reinstall) self-retires on its next
        retry pass anyway; calling ``stop`` releases the timer without
        waiting out the interval.  Its queues stay readable.
        """
        if self._retry_timer is not None:
            self.kernel.cancel(self._retry_timer)
            self._retry_timer = None

    # -- queue management -------------------------------------------------------

    def create_queue(self, name: str) -> MsmqQueue:
        """Create a queue (idempotent: returns the existing one)."""
        if name not in self.queues:
            self.queues[name] = MsmqQueue(name, self.node.name)
        return self.queues[name]

    def open_queue(self, name: str) -> MsmqQueue:
        """Open an existing queue or raise :class:`QueueNotFound`."""
        if name not in self.queues:
            raise QueueNotFound(f"{self.node.name} has no queue {name}")
        return self.queues[name]

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        dest_node: str,
        dest_queue: str,
        body: Any,
        persistent: bool = True,
        label: str = "",
        ttl: Optional[float] = None,
    ) -> str:
        """Send *body* to ``dest_node/dest_queue``; returns the message id.

        Local sends enqueue immediately.  Remote sends go through
        store-and-forward: the message is kept in the outgoing store and
        retried until acknowledged or its TTL expires (then dead-lettered).
        """
        if not self.service_up:
            raise MsqError(f"queue manager on {self.node.name} is down")
        node_name = self.node.name
        now = self.kernel.now
        message_id = f"{node_name}-{self._msg_epoch}.{next(self._msg_counter)}"
        # Positional, in field order: message_id, sender, body, persistent,
        # enqueued_at, sent_at, delivery_count, label.
        message = QueueMessage(message_id, node_name, body, persistent, 0.0, now, 0, label)
        self.stats["sent"] += 1
        if dest_node == node_name:
            self.open_queue(dest_queue).enqueue(message, now)
            self.stats["delivered_local"] += 1
            return message_id
        # message, dest_node, dest_queue, attempts, next_retry_at, expires_at
        entry = _OutgoingEntry(
            message, dest_node, dest_queue, 0, now, now + (ttl if ttl is not None else MESSAGE_TTL)
        )
        self.outgoing[message_id] = entry
        self._transmit(entry)
        return message_id

    def redirect_pending(self, old_node: str, new_node: str) -> int:
        """Point unacknowledged messages at a different node.

        Used by the Diverter on switchover: anything still in flight to the
        failed primary is re-targeted at the new one.  Returns how many
        messages were redirected.
        """
        count = 0
        # Insertion order of `outgoing` IS send order — redirects and
        # retries deliberately walk messages oldest-first (FIFO), and the
        # dict is only ever appended to in send() and popped on ack, so
        # that order is stable across runs.
        for entry in self.outgoing.values():
            if entry.dest_node == old_node:
                entry.dest_node = new_node
                entry.next_retry_at = self.kernel.now
                count += 1
        if count:
            self._retry_pass_soon()
        return count

    def _transmit(self, entry: _OutgoingEntry) -> None:
        entry.attempts += 1
        if entry.attempts > 1:
            self.stats["retries"] += 1
        message = entry.message
        packet = {
            "kind": "deliver",
            "queue": entry.dest_queue,
            "message": {
                "message_id": message.message_id,
                "sender": message.sender,
                "body": message.body,
                "persistent": message.persistent,
                "sent_at": message.sent_at,
                "label": message.label,
            },
        }
        self.network.send(self.node.name, entry.dest_node, MSQ_PORT, packet, size=128)
        entry.next_retry_at = self.kernel.now + self._retry_delay(entry.attempts)

    def _retry_delay(self, attempts: int) -> float:
        """Backoff delay before the next retry of a message on attempt *attempts*."""
        delay = self.retry_interval
        if self.backoff_factor > 1.0:
            delay = min(delay * self.backoff_factor ** (attempts - 1), self.max_retry_interval)
        if self.retry_jitter > 0.0:
            delay += self.network.rng.uniform(0.0, self.retry_jitter)
        return delay

    # -- receive path ---------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if not self.service_up:
            return
        payload = message.payload
        kind = payload.get("kind")
        if kind == "deliver":
            self._on_deliver(message)
        elif kind == "ack":
            self._on_ack(payload)

    def _on_deliver(self, message: Message) -> None:
        payload = message.payload
        queue_name = payload["queue"]
        data = payload["message"]
        queue = self.queues.get(queue_name)
        if queue is None:
            # Unknown queue: negative-ack so the sender dead-letters fast.
            self.network.send(
                self.node.name,
                message.source,
                MSQ_PORT,
                {"kind": "ack", "message_id": data["message_id"], "ok": False, "reason": "no-queue"},
                size=64,
            )
            return
        # Delivered once (delivery_count 1); enqueue stamps enqueued_at.
        incoming = QueueMessage(
            data["message_id"],
            data["sender"],
            data["body"],
            data["persistent"],
            0.0,
            data["sent_at"],
            1,
            data["label"],
        )
        queue.enqueue(incoming, self.kernel.now)  # duplicate ids dropped inside
        self.network.send(
            self.node.name,
            message.source,
            MSQ_PORT,
            {"kind": "ack", "message_id": data["message_id"], "ok": True, "reason": ""},
            size=64,
        )

    def _on_ack(self, payload: Dict[str, Any]) -> None:
        message_id = payload["message_id"]
        entry = self.outgoing.pop(message_id, None)
        if entry is None:
            return
        if payload["ok"]:
            self.stats["acked"] += 1
        else:
            self._dead_letter(entry, reason=payload.get("reason", "nack"))

    # -- retry engine -----------------------------------------------------------------

    # Same-tick with _retry_pass_once is benign: _transmit advances
    # next_retry_at, so whichever pass runs second skips the entry.
    # The shared stats counters bumped via _transmit/_dead_letter are
    # += increments, which commute across same-tick retry passes.
    def _retry_pass(self) -> None:  # oftt-lint: ok[race-write-read,ip-race-write-write]
        current_handler = self.node.handler_for(MSQ_PORT)
        if current_handler is not None and current_handler is not self._bound_handler:
            # A newer queue manager replaced us (node reinstall): retire.
            return
        if self.service_up and self.node.powered:
            now = self.kernel.now
            expired: List[str] = []
            for message_id, entry in self.outgoing.items():
                if now >= entry.expires_at:
                    expired.append(message_id)
                elif now >= entry.next_retry_at:
                    self._transmit(entry)
            for message_id in expired:
                entry = self.outgoing.pop(message_id)
                self._dead_letter(entry, reason="ttl-expired")
        self._retry_timer = self.kernel.schedule(self.retry_interval, self._retry_pass)

    def _retry_pass_soon(self) -> None:
        self.kernel.schedule(0.0, self._retry_pass_once)

    def _retry_pass_once(self) -> None:
        now = self.kernel.now
        for entry in list(self.outgoing.values()):
            if now >= entry.next_retry_at:
                self._transmit(entry)

    def _dead_letter(self, entry: _OutgoingEntry, reason: str) -> None:
        self.stats["dead_lettered"] += 1
        dead = QueueMessage(
            message_id=f"dlq:{entry.message.message_id}",
            sender=entry.message.sender,
            body={"reason": reason, "dest": f"{entry.dest_node}/{entry.dest_queue}", "body": entry.message.body},
            persistent=True,
            sent_at=entry.message.sent_at,
            label=f"dead:{entry.message.label}",
        )
        self.queues[DEAD_LETTER_QUEUE].enqueue(dead, self.kernel.now)

    # -- crash hooks --------------------------------------------------------------------

    def attach_to_system(self, system) -> None:
        """Wire OS lifecycle events to MSMQ crash semantics.

        On power-off/bluescreen the service pauses and express messages
        are purged; on reboot the service (persistent state intact)
        resumes.  Hooks retire themselves once this manager has been
        replaced by a newer one on the same node (node reinstall).
        """

        def is_current() -> bool:
            handler = self.node.handler_for(MSQ_PORT)
            return handler is None or handler is self._bound_handler

        def crashed(_system) -> None:
            if is_current():
                self.on_crash()

        def booted(_system) -> None:
            if is_current():
                self.on_recover()

        system.on_crash.append(crashed)
        system.on_boot.append(booted)

    def on_crash(self) -> None:
        """Model an OS crash: express messages are lost; service pauses."""
        self.service_up = False
        for queue in self.queues.values():
            queue.purge_express()

    def on_recover(self) -> None:
        """Service restart after reboot: persistent state is back."""
        self.service_up = True
        if self.node.handler_for(MSQ_PORT) is None:
            self.node.bind(MSQ_PORT, self._bound_handler)

    def pending_count(self) -> int:
        """Unacknowledged outgoing messages."""
        return len(self.outgoing)

    def __repr__(self) -> str:
        return f"QueueManager({self.node.name}, queues={sorted(self.queues)}, pending={len(self.outgoing)})"
