"""The Calling History generator (Table 1, test PC).

Listens to the telephone simulator and keeps the authoritative event
history — the ground truth a recovered Call Track application is compared
against.  It also derives the same statistics the application tracks, so
experiments can quantify exactly how much state a failover lost (bounded
by the checkpoint window) and verify nothing was double-counted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.devices.telephone import CallEvent, TelephoneSystem


class CallingHistoryGenerator:
    """Ground-truth recorder attached to a :class:`TelephoneSystem`."""

    def __init__(self, telephone: TelephoneSystem) -> None:
        self.telephone = telephone
        self.history: List[CallEvent] = []
        telephone.add_listener(self.history.append)

    @property
    def event_count(self) -> int:
        """Total events generated so far."""
        return len(self.history)

    def histogram(self) -> Dict[int, int]:
        """Ground-truth busy-line histogram over all events."""
        result: Dict[int, int] = {k: 0 for k in range(self.telephone.line_count + 1)}
        for event in self.history:
            result[event.busy_lines] = result.get(event.busy_lines, 0) + 1
        return result

    def replay_into(self, app) -> int:
        """Replay the full history into a Call Track copy.

        Returns how many events the app actually applied (duplicates of
        already-processed events are dropped by its dedupe logic), so a
        recovered application can be audited: after replay its state must
        equal the ground truth exactly.
        """
        applied = 0
        for event in self.history:
            if app.process_event(event.as_wire()):
                applied += 1
        return applied

    def __repr__(self) -> str:
        return f"CallingHistoryGenerator(events={len(self.history)})"
