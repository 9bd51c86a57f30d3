"""Component status model.

The engine "reports and updates the status of each monitored component to
the system monitor" (§2.2.1).  These are the records that flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class ComponentKind(enum.Enum):
    """What kind of thing a status report describes."""

    HARDWARE = "hardware"
    OPERATING_SYSTEM = "os"
    OFTT_ENGINE = "engine"
    APPLICATION = "application"
    OPC_SERVER = "opc-server"
    WATCHDOG = "watchdog"


class ComponentStatus(enum.Enum):
    """Health states a monitored component moves through."""

    STARTING = "starting"
    RUNNING = "running"
    SUSPECTED = "suspected"
    FAILED = "failed"
    RECOVERING = "recovering"
    STOPPED = "stopped"


# The members the per-period report paths use, bound once, and the wire
# value maps: on CPython 3.11 ``ComponentStatus.RUNNING`` takes
# ``EnumType``'s slow attribute path and ``ComponentKind(value)`` runs
# ``EnumType.__call__`` (see :mod:`repro.core.roles`, which does the same
# for ``Role``).
OFTT_ENGINE = ComponentKind.OFTT_ENGINE
HARDWARE = ComponentKind.HARDWARE
RUNNING = ComponentStatus.RUNNING
FAILED = ComponentStatus.FAILED

#: Wire value -> member, what ``ComponentKind(value)`` returns.
KIND_BY_VALUE: Dict[str, ComponentKind] = {kind.value: kind for kind in ComponentKind}
#: Wire value -> member, what ``ComponentStatus(value)`` returns.
STATUS_BY_VALUE: Dict[str, ComponentStatus] = {status.value: status for status in ComponentStatus}


def kind_of(value: Any) -> ComponentKind:
    """``ComponentKind(value)`` at one dict lookup; an unknown value raises ``ValueError``."""
    try:
        return KIND_BY_VALUE[value]
    except (KeyError, TypeError):
        return ComponentKind(value)  # Enum's own lookup and its ValueError


def status_of(value: Any) -> ComponentStatus:
    """``ComponentStatus(value)`` at one dict lookup; an unknown value raises ``ValueError``."""
    try:
        return STATUS_BY_VALUE[value]
    except (KeyError, TypeError):
        return ComponentStatus(value)  # Enum's own lookup and its ValueError


@dataclass(frozen=True)
class StatusReport:
    """One status update about one component."""

    node: str
    component: str
    kind: ComponentKind
    status: ComponentStatus
    role: str = ""
    time: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_wire(self) -> dict:
        """Marshalable form for the monitor link (``_value_`` is the
        member's value without Enum's descriptor)."""
        return {
            "node": self.node,
            "component": self.component,
            "kind": self.kind._value_,
            "status": self.status._value_,
            "role": self.role,
            "time": self.time,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_wire(cls, data: dict) -> "StatusReport":
        """Inverse of :meth:`as_wire` (fields passed positionally, in
        declaration order: keyword binding into the generated
        ``__init__`` costs more than the frozen stores)."""
        return cls(
            data["node"],
            data["component"],
            kind_of(data["kind"]),
            status_of(data["status"]),
            data["role"],
            data["time"],
            dict(data["detail"]),
        )

    def __str__(self) -> str:
        role = f" [{self.role}]" if self.role else ""
        return f"{self.node}/{self.component}{role}: {self.status.value}"
