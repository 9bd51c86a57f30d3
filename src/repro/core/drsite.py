"""The disaster-recovery site for :class:`LogReplayDRStrategy`.

A third, remote node outside the primary/backup pair.  It never runs
the application; it accumulates two durable streams from one MSMQ queue
(``oftt.dr.journal``) and watches the pair's liveness:

* ``ckpt`` records — checkpoints mirrored by the pair's primary
  (:meth:`LogReplayDRStrategy.replicate`), kept in a local
  :class:`~repro.core.checkpoint.CheckpointStore` (incremental deltas
  merge onto the latest image exactly as on the backup);
* ``msg`` records — the sender-side message log: external clients
  mirror every workload message here at send time (the
  ``DiverterClient`` ``mirror`` option), so the log survives the pair
  (the pair-side inbox dies with its node).

When *both* pair engines go silent for ``DR_ACTIVATION_TIMEOUT``
(no DR heartbeats on ``oftt.dr``, no checkpoint arrivals), the site
activates: it reconstructs the application state as
``last checkpoint image + replay of logged messages the image does not
already contain`` — the recovery rule of message-logging +
checkpointing (arxiv 0911.3092).  Replay applies messages through the
application-provided ``apply_message(state, body) -> bool`` so the
site needs no application process of its own; messages already
reflected in the checkpoint (or out of order) return False and are
skipped.  If a pair heartbeat arrives while active — the pair came
back — the site stands down; split-brain between the DR site and a
serving primary is the chaos suite's ``dr-standdown`` check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import Checkpoint, CheckpointStore
from repro.msq.manager import QueueManager
from repro.msq.queue import QueueMessage
from repro.nt.memory import copy_value
from repro.nt.system import NTSystem
from repro.simnet.kernel import ScheduleHandle, SimKernel
from repro.simnet.trace import TraceLog

#: The DR site's journal queue (checkpoint mirror + message log).
DR_QUEUE = "oftt.dr.journal"
#: Port the pair engines heartbeat the DR site on.
DR_PORT = "oftt.dr"
#: Pair silence (ms) before the site activates.
DR_ACTIVATION_TIMEOUT = 5_000.0


class DRSite:
    """Remote-site journal consumer + total-pair-loss recovery engine."""

    def __init__(
        self,
        kernel: SimKernel,
        system: NTSystem,
        qmgr: QueueManager,
        trace: TraceLog,
        app_name: str = "synthetic",
        apply_message: Optional[Callable[[Dict[str, Any], Any], bool]] = None,
    ) -> None:
        self.kernel = kernel
        self.system = system
        self.trace = trace
        self.node_name = system.node.name
        self.app_name = app_name
        self.apply_message = apply_message
        self.store = CheckpointStore()
        #: Message-log bodies in arrival order (replay input).
        self.message_log: List[Any] = []
        self.last_pair_signal: Optional[float] = None
        self.active = False
        # Armed on standdown: the pair came back, possibly rebooted with
        # fresh checkpoint sequences, so its next full checkpoint starts a
        # new chain instead of being rejected as stale.
        self._rebase_pending = False
        self.queue = qmgr.create_queue(DR_QUEUE)
        self.queue.subscribe(self._on_record)
        system.node.bind(DR_PORT, self._on_pair_heartbeat)
        # Poll well inside the activation timeout so activation latency
        # is dominated by the timeout itself, not the poll grid.
        self._watch_period = max(DR_ACTIVATION_TIMEOUT / 4.0, 250.0)
        self._watch_timer: Optional[ScheduleHandle] = self.kernel.schedule(self._watch_period, self._watch)

    def stop(self) -> None:
        """Retire the site: stop the activation watch and journal intake.

        The journal and any reconstructed image stay readable — only the
        live machinery (poll timer, queue subscription) is released.
        """
        if self._watch_timer is not None:
            self.kernel.cancel(self._watch_timer)
            self._watch_timer = None
        self.queue.unsubscribe()

    # -- journal intake ------------------------------------------------------------

    # Same-tick with _watch/_on_pair_heartbeat is benign: journal intake,
    # heartbeats and the watch poll each leave the site in a state that is
    # a pure function of the kernel's deterministic same-tick (seq) order,
    # and reconstruct() runs over whatever the log and store hold at that
    # instant (a re-base swaps the store's chain within this one handler).
    def _on_record(self, message: QueueMessage) -> None:  # oftt-lint: ok[ip-race-container,ip-race-write-read,race-write-write]
        body = message.body
        kind = body.get("kind") if isinstance(body, dict) else None
        if kind == "ckpt":
            checkpoint = Checkpoint.from_wire(body["data"])
            if self._rebase_pending and not checkpoint.incremental:
                self._rebase_pending = False
                self.store.clear(checkpoint.app_name)
            self.store.store(checkpoint)
            # Checkpoints come from the pair's primary: proof of life.
            self.last_pair_signal = self.kernel.now
        elif kind == "msg":
            # The journal IS the recovery state: reconstruct() replays it
            # verbatim, so it must not be pruned here.  Runs are short enough
            # that its growth does not matter, so it is not compacted.
            self.message_log.append(body["body"])  # oftt-lint: ok[unbounded-growth]

    def _on_pair_heartbeat(self, _message: Any) -> None:  # oftt-lint: ok[race-write-write,ip-race-write-write]
        self.last_pair_signal = self.kernel.now
        if self.active:
            self._stand_down()

    # -- activation ----------------------------------------------------------------

    def _watch(self) -> None:
        now = self.kernel.now
        if (
            not self.active
            and self.last_pair_signal is not None
            and now - self.last_pair_signal > DR_ACTIVATION_TIMEOUT
        ):
            self._activate(now - self.last_pair_signal)
        self._watch_timer = self.kernel.schedule(self._watch_period, self._watch)

    def _activate(self, silence: float) -> None:
        self.active = True
        _image, replayed = self.reconstruct()
        self.trace.emit(
            "drsite",
            self.node_name,
            "dr-activated",
            silence=round(silence, 3),
            checkpoint_sequence=self.store.latest_sequence(self.app_name),
            replayed=replayed,
        )

    def _stand_down(self) -> None:
        self.active = False
        self._rebase_pending = True
        self.trace.emit("drsite", self.node_name, "dr-standdown")

    def reconstruct(self) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """``(image, replayed)``: last checkpoint + message-log replay.

        Starts from a deep copy of the latest mirrored image (never
        mutates the store) and replays every logged message through the
        application's ``apply_message``; the application decides — via
        its own sequencing state inside the image — which messages the
        checkpoint already reflects.
        """
        latest = self.store.latest(self.app_name)
        image: Dict[str, Dict[str, Any]] = copy_value(latest.image, {})[0] if latest is not None else {}
        replayed = 0
        if self.apply_message is not None:
            region = image.setdefault("globals", {})
            for body in self.message_log:
                if self.apply_message(region, body):
                    replayed += 1
        return image, replayed

    def __repr__(self) -> str:
        state = "ACTIVE" if self.active else "standby"
        return f"DRSite({self.node_name}, {state}, msgs={len(self.message_log)})"
