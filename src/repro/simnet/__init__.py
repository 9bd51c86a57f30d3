"""Deterministic discrete-event simulation substrate.

Everything in the OFTT reproduction — NT nodes, COM calls, message queues,
OPC data flow, heartbeats, checkpoints — runs on this kernel so that every
experiment is reproducible for a given seed and latencies are measured in
simulated time.

Public surface:

* :class:`SimKernel` — the event loop (``schedule``, ``cancel``,
  ``spawn``, ``run``).
* :class:`Process` — a generator-based cooperative process (``kill``
  ends it).
* Yieldables: :class:`Timeout`, :class:`Event` and :class:`Process`.
* :class:`Network`, :class:`NetNode`, :class:`Link` — simulated Ethernet.
* :class:`RngStreams` — named, seeded random streams.
* :class:`TraceLog` — structured trace of simulation events.
"""

from repro.simnet.kernel import Process, SimKernel
from repro.simnet.events import Event, Timeout
from repro.simnet.random import RngStreams
from repro.simnet.network import Link, Message, NetNode, Network
from repro.simnet.partitions import PartitionController
from repro.simnet.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "Link",
    "Message",
    "NetNode",
    "Network",
    "PartitionController",
    "Process",
    "RngStreams",
    "SimKernel",
    "Timeout",
    "TraceLog",
    "TraceRecord",
]
