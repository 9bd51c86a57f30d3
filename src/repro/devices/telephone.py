"""The §4 demo workload: a simulated small-office telephone system.

"The application keeps track of the usage of a simulated small office
telephone system that consists of 5 telephone lines and 10 callers.
Numbers of busy lines are displayed in the histogram."

:class:`TelephoneSystem` runs each caller as a chain of kernel timers:
the caller alternates idle periods and call attempts; an attempt seizes a
free line for an exponential call duration, or is *blocked* when all
lines are busy (an Erlang-B loss system).  Every start/end/blocked event
is handed to registered listeners — in the demo configuration the
listener forwards events through the Message Diverter to the Call Track
application.

Each tick draws its next delay from the phone RNG and schedules the next
tick after the listeners of its event have run, so ticks fall at the
times, in the order and with the RNG draws of a caller process sleeping
on a ``Timeout`` between them.  ``start`` arms one tick per caller at
the current time; ``stop`` retires the armed ticks by bumping the run's
epoch, which every tick carries and checks, so a stale tick does
nothing (no call is cancelled).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List

from repro.simnet.kernel import SimKernel


@dataclass(frozen=True, slots=True)
class CallEvent:
    """One telephone-system event."""

    kind: str  # "start" | "end" | "blocked"
    caller: int
    line: int  # -1 for blocked attempts
    time: float
    busy_lines: int  # busy count *after* the event
    sequence: int

    def as_wire(self) -> dict:
        """Marshalable form for queueing to the Call Track app."""
        return {
            "kind": self.kind,
            "caller": self.caller,
            "line": self.line,
            "time": self.time,
            "busy_lines": self.busy_lines,
            "sequence": self.sequence,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CallEvent":
        """Inverse of :meth:`as_wire`."""
        return cls(
            data["kind"], data["caller"], data["line"], data["time"], data["busy_lines"], data["sequence"]
        )


class TelephoneSystem:
    """The 5-line / 10-caller simulator (both counts configurable)."""

    def __init__(
        self,
        kernel: SimKernel,
        rng,
        lines: int = 5,
        callers: int = 10,
        mean_idle: float = 8_000.0,
        mean_call: float = 4_000.0,
    ) -> None:
        self.kernel = kernel
        self.rng = rng
        self.line_count = lines
        self.caller_count = callers
        self.mean_idle = mean_idle
        self.mean_call = mean_call
        self.line_busy: List[bool] = [False] * lines
        #: Number of currently busy lines, kept by seize and release.
        self.busy_lines = 0
        self.listeners: List[Callable[[CallEvent], None]] = []
        self.running = False
        self._sequence = itertools.count(1)
        # Every tick carries the epoch it was armed in; ``stop`` bumps
        # the epoch, which retires every tick armed before it.
        self._epoch = 0

    # -- wiring ------------------------------------------------------------

    def add_listener(self, listener: Callable[[CallEvent], None]) -> None:
        """Receive every event as it happens."""
        self.listeners.append(listener)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the callers: arm one tick per caller at the current time,
        in caller order; each first tick begins an idle period."""
        if self.running:
            return
        self.running = True
        schedule = self.kernel.schedule
        epoch = self._epoch
        for caller in range(self.caller_count):
            schedule(0.0, self._idle, caller, epoch)

    def stop(self) -> None:
        """Stop the simulator: lines are freed and every armed tick is
        retired (it still fires, and does nothing)."""
        self.running = False
        self._epoch += 1
        self.line_busy = [False] * self.line_count
        self.busy_lines = 0

    # -- caller ticks ------------------------------------------------------------
    #
    # A listener may stop (and restart) the simulator, so a tick re-arms
    # only while its epoch is still current once the listeners have run.
    # A listener's exception propagates out of ``SimKernel.run``.
    #
    # Same-tick order: every delay is a continuous exponential draw, so
    # two callers' attempts and hang-ups share a timestamp with
    # probability zero; the first ticks ``start`` arms at one time only
    # draw and arm.  The seq tiebreak decides nothing in practice.

    def _idle(self, caller: int, epoch: int) -> None:
        """Arm the caller's next attempt one idle period from now."""
        if epoch == self._epoch:
            self.kernel.schedule(self.rng.expovariate(1.0 / self.mean_idle), self._attempt, caller, epoch)

    def _attempt(self, caller: int, epoch: int) -> None:  # oftt-lint: ok[race-write-write,ip-race-write-write]
        """The end of an idle period: seize a free line, or be blocked."""
        if epoch != self._epoch:
            return
        if self.busy_lines == self.line_count:
            self._emit("blocked", caller, -1)
            self._idle(caller, epoch)
            return
        line_busy = self.line_busy
        line = line_busy.index(False)
        line_busy[line] = True
        self.busy_lines += 1
        self._emit("start", caller, line)
        if epoch == self._epoch:
            self.kernel.schedule(self.rng.expovariate(1.0 / self.mean_call), self._hang_up, caller, line, epoch)

    def _hang_up(self, caller: int, line: int, epoch: int) -> None:  # oftt-lint: ok[race-write-read]
        """The end of a call: release its line."""
        if epoch != self._epoch:
            return
        self.line_busy[line] = False
        self.busy_lines -= 1
        self._emit("end", caller, line)
        self._idle(caller, epoch)

    def _emit(self, kind: str, caller: int, line: int) -> None:
        event = CallEvent(kind, caller, line, self.kernel.now, self.busy_lines, next(self._sequence))
        # Listeners are registered while the scenario is built (two in the
        # §4 demo), never per event.
        for listener in self.listeners:  # oftt-lint: ok[hot-linear-scan]
            listener(event)

    def __repr__(self) -> str:
        return f"TelephoneSystem(lines={self.line_count}, callers={self.caller_count}, busy={self.busy_lines})"
