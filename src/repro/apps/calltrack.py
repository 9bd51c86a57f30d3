"""The Call Track application (§4).

"The application keeps track of the usage of a simulated small office
telephone system ...  Numbers of busy lines are displayed in the
histogram.  The application is preferred to be fault tolerant since it
records the past and present states of the system."

Call events arrive through the Message Diverter inbox queue (the
telephone simulator on the test PC is the external sender).  The state —
the busy-line histogram, per-line usage, call/blocked counters, and the
last processed event sequence — lives in the process address space and
is checkpointed through the client FTIM:

* ``OFTTSelSave`` designates exactly the state variables (level-2 API).
* ``OFTTSave`` fires on every *end* event (level-3, event-based
  checkpointing), so completed calls are never lost on failover.

Duplicate deliveries (diverter redelivery across a switchover) are
suppressed with the ``seen_floor``/recent-set discipline; that logic is
itself part of the checkpointed state so it survives failover too.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional

from repro.core.api import OfttApi
from repro.core.appdriver import OfttApplication
from repro.core.diverter import inbox_queue_name
from repro.msq.queue import QueueMessage
from repro.nt.memory import copy_variables
from repro.nt.process import NTProcess
from repro.simnet.events import Timeout

#: Variables designated via OFTTSelSave (everything the app must not lose).
STATE_VARS = (
    "histogram",
    "line_seconds",
    "total_calls",
    "blocked_calls",
    "events_processed",
    "duplicates_dropped",
    "seen_floor",
    "seen_recent",
    "last_event_time",
)


class CallTrackApp(OfttApplication):
    """The protected Call Track application (one copy per node)."""

    name = "calltrack"

    def __init__(self, unit: str = "calltrack", lines: int = 5, save_on_end: bool = True) -> None:
        super().__init__()
        self.unit = unit
        self.lines = lines
        self.save_on_end = save_on_end
        self.api: Optional[OfttApi] = None
        #: ``(events_processed, histogram copy)`` at the last display
        #: render in the current process; None before its first render.
        self._display_key: Optional[tuple] = None

    # -- lifecycle (engine-driven) ----------------------------------------------

    def launch(self, image: Optional[Dict[str, Any]]) -> NTProcess:
        context = self.context
        assert context is not None, "install() must run before launch()"
        process = context.system.create_process(self.name)
        self.process = process
        self._display_key = None
        self._init_state(process, image)

        # The main application thread: periodically refreshes the
        # display model (histogram rendering is derived state).
        def main_body(_thread):
            def loop():
                while True:
                    yield Timeout(500.0)
                    self._refresh_display()

            return loop()

        process.create_thread("main", body=main_body, dynamic=False)
        process.start()

        # Link the FTIM (client variant: this app is stateful).
        api = OfttApi(context, self.name, process)
        api.OFTTInitialize(stateful=True)
        api.OFTTSelSave("globals", list(STATE_VARS))
        self.api = api

        # Consume the diverter inbox for our logical unit.
        queue = context.qmgr.create_queue(inbox_queue_name(self.unit))
        # Released by the process-exit hook on the next line — a dynamic
        # unsubscribe path the static release search cannot see.
        queue.subscribe(self._on_queue_message)  # oftt-lint: ok[leaked-subscription]
        process.on_exit.append(lambda _p: queue.unsubscribe())

        self.launch_count += 1
        return process

    def _init_state(self, process: NTProcess, image: Optional[Dict[str, Any]]) -> None:
        space = process.address_space
        defaults: Dict[str, Any] = {
            "histogram": {str(k): 0 for k in range(self.lines + 1)},
            "line_seconds": {str(k): 0.0 for k in range(self.lines)},
            "total_calls": 0,
            "blocked_calls": 0,
            "events_processed": 0,
            "duplicates_dropped": 0,
            "seen_floor": 0,
            "seen_recent": [],
            "last_event_time": 0.0,
            "display": "",
        }
        # Deep copy: seen_recent is a list the app appends to; a shallow
        # copy would alias it into the checkpoint held by the engine.
        restored = copy_variables(image.get("globals", {})) if image else {}
        for var, default in defaults.items():
            space.write(var, restored.get(var, default))

    # -- event processing --------------------------------------------------------

    def _on_queue_message(self, message: QueueMessage) -> None:
        if self.process is None or not self.process.alive:
            return
        self.process_event(message.body)

    def process_event(self, event: Dict[str, Any]) -> bool:
        """Apply one telephone event (wire dict).  Returns False for dups."""
        space = self.process.address_space
        sequence = int(event["sequence"])
        seen_floor = space.read("seen_floor")
        seen_recent = space.read("seen_recent")
        if sequence == seen_floor + 1 and not seen_recent:
            # In order with no gap pending: the floor moves and the
            # window stays empty, what the compaction below would leave.
            space.write("seen_floor", sequence)
        else:
            # The window is sorted: bisect finds a duplicate and the place.
            at = bisect_left(seen_recent, sequence)
            if sequence <= seen_floor or (at < len(seen_recent) and seen_recent[at] == sequence):
                space.write("duplicates_dropped", space.read("duplicates_dropped") + 1)
                return False
            # A new list, so that no window handed out earlier (a
            # checkpoint image, a caller's read) changes.
            seen_recent = seen_recent.copy()
            seen_recent.insert(at, sequence)
            # Compact: advance the floor across any contiguous prefix.
            while seen_recent and seen_recent[0] == seen_floor + 1:
                seen_floor += 1
                seen_recent.pop(0)
            space.write("seen_floor", seen_floor)
            space.write("seen_recent", seen_recent)

        histogram = space.read("histogram")
        busy = str(event["busy_lines"])
        histogram[busy] = histogram.get(busy, 0) + 1
        space.write("histogram", histogram)
        kind = event["kind"]
        if kind == "start":
            space.write("total_calls", space.read("total_calls") + 1)
        elif kind == "blocked":
            space.write("blocked_calls", space.read("blocked_calls") + 1)
        elif kind == "end" and event["line"] >= 0:
            line_seconds = space.read("line_seconds")
            key = str(event["line"])
            line_seconds[key] = line_seconds.get(key, 0.0) + 1.0
            space.write("line_seconds", line_seconds)
        space.write("events_processed", space.read("events_processed") + 1)
        space.write("last_event_time", float(event["time"]))

        if self.save_on_end and kind == "end" and self.api is not None:
            # Level-3 event-based checkpointing: completed calls are
            # durable the moment they finish.
            self.api.OFTTSave()
        return True

    # -- display ---------------------------------------------------------------------

    def _refresh_display(self) -> None:
        # The display shows the histogram and the event count only, so
        # it is rendered again only when one of them changed since the
        # last render in this process.
        space = self.process.address_space
        events = space.read("events_processed")
        histogram = space.read("histogram")
        key = self._display_key
        if key is not None and key[0] == events and key[1] == histogram:
            return
        self._display_key = (events, dict(histogram))
        space.write("display", self.render_histogram())

    def render_histogram(self, width: int = 40) -> str:
        """ASCII rendering of the busy-lines histogram (the demo's GUI)."""
        space = self.process.address_space
        histogram: Dict[str, int] = space.read("histogram")
        total = sum(histogram.values()) or 1
        lines = [f"Busy-line histogram ({space.read('events_processed')} events)"]
        for busy in range(self.lines + 1):
            count = histogram.get(str(busy), 0)
            bar = "#" * int(round(width * count / total))
            lines.append(f"{busy} busy |{bar.ljust(width)}| {count}")
        return "\n".join(lines)

    # -- state accessors (tests/benches) ------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Snapshot of the tracked state (empty dict when not running)."""
        if self.process is None:
            return {}
        space = self.process.address_space
        return {var: space.read(var) for var in STATE_VARS}

    def histogram(self) -> Dict[int, int]:
        """The busy-line histogram with integer keys."""
        if self.process is None:
            return {}
        return {int(k): v for k, v in self.process.address_space.read("histogram").items()}

    def events_processed(self) -> int:
        """How many distinct events this copy has applied."""
        if self.process is None:
            return 0
        return self.process.address_space.read("events_processed")
