"""Synthetic stateful application for checkpoint experiments.

Carries a configurable amount of state split between *hot* variables
(mutated every tick) and *cold* bulk payload (written once), so the X1
experiment can compare full, selective, and incremental checkpointing on
the same workload: selective captures only what the developer designated,
incremental captures only what changed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.api import OfttApi
from repro.core.appdriver import OfttApplication
from repro.nt.memory import copy_variables
from repro.nt.process import NTProcess
from repro.simnet.events import Timeout


class SyntheticStateApp(OfttApplication):
    """An app with ``cold_kb`` of static payload and a hot counter set."""

    name = "synthetic"

    def __init__(
        self,
        cold_kb: int = 64,
        hot_vars: int = 8,
        tick_period: float = 100.0,
        mode: str = "full",
        checkpoint_period: Optional[float] = None,
        inbox_queue: Optional[str] = None,
    ) -> None:
        """
        Parameters
        ----------
        mode:
            ``"full"`` — level-1 API, whole address space each period;
            ``"selective"`` — ``OFTTSelSave`` on the hot variables;
            ``"incremental"`` — full designation but delta encoding.
        inbox_queue:
            Name of a local MSMQ queue to consume workload messages from
            (the diverter inbox).  Each applied message updates the
            ``applied``/``last_n`` counters in checkpointed state via
            :meth:`apply_message` — the same function the DR site uses
            for log replay — so message-driven state survives failovers.
            None (the default) keeps the app purely timer-driven.
        """
        super().__init__()
        if mode not in ("full", "selective", "incremental"):
            raise ValueError(f"unknown mode {mode!r}")
        self.cold_kb = cold_kb
        self.hot_vars = hot_vars
        self.tick_period = tick_period
        self.mode = mode
        self.checkpoint_period = checkpoint_period
        self.inbox_queue = inbox_queue
        self.api: Optional[OfttApi] = None

    def launch(self, image: Optional[Dict[str, Any]]) -> NTProcess:
        context = self.context
        assert context is not None, "install() must run before launch()"
        process = context.system.create_process(self.name)
        self.process = process
        space = process.address_space
        # Deep copy so live writes can never reach back into the stored
        # checkpoint image (values may be mutable containers).
        restored = copy_variables(image.get("globals", {})) if image else {}

        # Cold payload: 1 KiB strings, written once.
        for block in range(self.cold_kb):
            key = f"cold_{block:04d}"
            space.write(key, restored.get(key, "x" * 1024))
        for index in range(self.hot_vars):
            key = f"hot_{index:02d}"
            space.write(key, restored.get(key, 0))
        space.write("ticks", restored.get("ticks", 0))

        def main_body(_thread):
            def loop():
                while True:
                    yield Timeout(self.tick_period)
                    ticks = space.read("ticks") + 1
                    space.write("ticks", ticks)
                    for index in range(self.hot_vars):
                        key = f"hot_{index:02d}"
                        space.write(key, space.read(key) + 1)

            return loop()

        process.create_thread("main", body=main_body, dynamic=False)
        process.start()

        if self.inbox_queue is not None:
            space.write("applied", restored.get("applied", 0))
            space.write("last_n", restored.get("last_n", 0))
            queue = context.qmgr.create_queue(self.inbox_queue)

            def on_workload(qmsg, queue=queue, space=space, process=process):
                if not process.alive:
                    # This copy died with messages still arriving (crash
                    # faults race queue delivery); stop consuming so the
                    # next launch re-subscribes against live state.
                    queue.unsubscribe()
                    return
                state = {"applied": space.read("applied"), "last_n": space.read("last_n")}
                if self.apply_message(state, qmsg.body):
                    space.write("applied", state["applied"])
                    space.write("last_n", state["last_n"])

            # Single-subscriber slot: a relaunch's subscribe replaces this
            # one, and the dead-copy guard inside on_workload unsubscribes
            # itself — no static teardown path to point the pass at.
            queue.subscribe(on_workload)  # oftt-lint: ok[leaked-subscription]

        api = OfttApi(context, self.name, process)
        api.OFTTInitialize(stateful=True, checkpoint_period=self.checkpoint_period)
        if self.mode == "selective":
            hot_names = [f"hot_{i:02d}" for i in range(self.hot_vars)] + ["ticks"]
            api.OFTTSelSave("globals", hot_names)
        elif self.mode == "incremental":
            api.ftim.incremental = True
        self.api = api
        self.launch_count += 1
        return process

    @staticmethod
    def apply_message(state: Dict[str, Any], body: Any) -> bool:
        """Apply one workload message to *state*; True if it changed.

        *state* is the ``globals`` region dict (live or a reconstructed
        checkpoint image).  Messages carry ``{"op": "tick", "n": N}``
        with N strictly increasing per sender; anything at or below
        ``last_n`` is a duplicate or stale redelivery and is skipped —
        which is exactly the dedup rule DR log replay needs to avoid
        double-applying messages the checkpoint already reflects.
        """
        if not isinstance(body, dict) or body.get("op") != "tick":
            return False
        n = body.get("n")
        if not isinstance(n, int) or n <= state.get("last_n", 0):
            return False
        state["applied"] = state.get("applied", 0) + 1
        state["last_n"] = n
        return True

    def ticks(self) -> int:
        """Progress counter (0 when not running)."""
        if self.process is None or not self.process.alive:
            return 0
        return self.process.address_space.read("ticks")

    def applied(self) -> int:
        """Workload messages applied (0 when not running or timer-only)."""
        if self.process is None or not self.process.alive or self.inbox_queue is None:
            return 0
        return self.process.address_space.read("applied")

    def last_n(self) -> int:
        """Highest applied workload sequence (0 when not running)."""
        if self.process is None or not self.process.alive or self.inbox_queue is None:
            return 0
        return self.process.address_space.read("last_n")
