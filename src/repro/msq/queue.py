"""Queues and messages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional


@dataclass(slots=True)
class QueueMessage:
    """A message stored in (or travelling towards) a queue.

    The manager's per-message paths build it positionally: keyword
    binding into the generated ``__init__`` costs as much as the stores.
    """

    message_id: str
    sender: str
    body: Any
    persistent: bool = True
    enqueued_at: float = 0.0
    sent_at: float = 0.0
    delivery_count: int = 0
    label: str = ""

    def __repr__(self) -> str:
        kind = "persistent" if self.persistent else "express"
        return f"QueueMessage({self.message_id}, {kind}, from={self.sender}, label={self.label})"


class MsmqQueue:
    """A FIFO queue on one node.

    Consumers either poll with :meth:`receive` / :meth:`peek` or subscribe
    a push callback.  A consumed message leaves the queue.
    """

    def __init__(self, name: str, owner_node: str) -> None:
        self.name = name
        self.owner_node = owner_node
        self.messages: List[QueueMessage] = []
        self.seen_ids: set = set()
        self._subscriber: Optional[Callable[[QueueMessage], None]] = None

    def enqueue(self, message: QueueMessage, now: float) -> bool:
        """Append a message; duplicates (same id) are dropped.

        Returns whether the message was new.
        """
        if message.message_id in self.seen_ids:
            return False
        self.seen_ids.add(message.message_id)
        message.enqueued_at = now
        self.messages.append(message)
        if self._subscriber is not None:
            self._drain()
        return True

    def subscribe(self, callback: Callable[[QueueMessage], None]) -> None:
        """Push mode: deliver queued and future messages to *callback*."""
        self._subscriber = callback
        self._drain()

    def unsubscribe(self) -> None:
        """Stop push delivery; messages accumulate again."""
        self._subscriber = None

    def _drain(self) -> None:
        while self.messages and self._subscriber is not None:
            self._subscriber(self.messages.pop(0))

    def receive(self) -> Optional[QueueMessage]:
        """Pop the head message (None when empty)."""
        return self.messages.pop(0) if self.messages else None

    def peek(self) -> Optional[QueueMessage]:
        """Head message without consuming it."""
        return self.messages[0] if self.messages else None

    def purge_express(self) -> int:
        """Drop non-persistent messages (crash recovery); returns count."""
        before = len(self.messages)
        self.messages = [m for m in self.messages if m.persistent]
        return before - len(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return f"MsmqQueue({self.owner_node}/{self.name}, depth={len(self.messages)})"
