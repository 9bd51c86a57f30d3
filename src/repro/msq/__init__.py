"""Message-queue substrate (Microsoft Message Queue stand-in).

The paper's Message Diverter "uses Microsoft Message Queue ... the message
queue will store and transmit messages to the primary copy of the
application.  If a message is sent during a switchover, the message
non-delivery is detected and retried" (§2.2.3).  This package provides
those semantics:

* :class:`MsmqQueue` — FIFO queue with persistent/express messages and
  push subscriptions.
* :class:`QueueManager` — per-node queue service; survives process and OS
  crashes (persistent messages are on disk) but loses express messages.
* store-and-forward transport with acknowledgement, retry and
  deduplication, plus a dead-letter queue for undeliverable messages.
"""

from repro.msq.queue import MsmqQueue, QueueMessage
from repro.msq.manager import QueueManager, DEAD_LETTER_QUEUE

__all__ = ["DEAD_LETTER_QUEUE", "MsmqQueue", "QueueManager", "QueueMessage"]
