"""OPC value types: VARIANT tags, quality flags, timestamped values."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

# VARIANT type tags (the subset industrial data uses).
VT_I4 = "VT_I4"
VT_R8 = "VT_R8"
VT_BOOL = "VT_BOOL"
VT_BSTR = "VT_BSTR"


def canonical_vt(value: Any) -> str:
    """The VARIANT tag a raw Python value maps to."""
    if isinstance(value, bool):
        return VT_BOOL
    if isinstance(value, int):
        return VT_I4
    if isinstance(value, float):
        return VT_R8
    if isinstance(value, str):
        return VT_BSTR
    raise TypeError(f"no VARIANT mapping for {type(value).__name__}")


class Quality(enum.Enum):
    """OPC quality flags (major status + common sub-status)."""

    GOOD = "good"
    GOOD_LOCAL_OVERRIDE = "good:local-override"
    UNCERTAIN = "uncertain"
    UNCERTAIN_LAST_USABLE = "uncertain:last-usable"
    BAD = "bad"
    BAD_NOT_CONNECTED = "bad:not-connected"
    BAD_DEVICE_FAILURE = "bad:device-failure"
    BAD_COMM_FAILURE = "bad:comm-failure"
    BAD_OUT_OF_SERVICE = "bad:out-of-service"

    # Per-update paths read ``_value_``: on CPython 3.11 ``.value`` goes
    # through a Python-level descriptor, several times dearer than a
    # plain attribute.
    @property
    def is_good(self) -> bool:
        """Major status is GOOD."""
        return self._value_.startswith("good")


# The members the plant-to-screen path uses, bound once: ``Quality.GOOD``
# takes ``EnumType``'s slow attribute path on CPython 3.11, and
# ``Quality(value)`` runs ``EnumType.__call__``, each an order of
# magnitude dearer than a module global or a dict lookup (see
# :mod:`repro.core.roles`, which does the same for ``Role``).
GOOD = Quality.GOOD
BAD_DEVICE_FAILURE = Quality.BAD_DEVICE_FAILURE

#: Wire value -> member, what ``Quality(value)`` returns.
QUALITY_BY_VALUE: Dict[str, Quality] = {quality.value: quality for quality in Quality}


def quality_of(value: Any) -> Quality:
    """``Quality(value)`` at one dict lookup; an unknown value raises ``ValueError``."""
    try:
        return QUALITY_BY_VALUE[value]
    except (KeyError, TypeError):
        return Quality(value)  # Enum's own lookup and its ValueError


@dataclass(frozen=True)
class OpcValue:
    """A value with OPC quality and source timestamp."""

    value: Any
    quality: Quality = GOOD
    timestamp: float = 0.0

    def as_wire(self) -> dict:
        """Marshalable form for DCOM callbacks."""
        return {"value": self.value, "quality": self.quality._value_, "timestamp": self.timestamp}

    @classmethod
    def from_wire(cls, data: dict) -> "OpcValue":
        """Inverse of :meth:`as_wire`."""
        return cls(data["value"], quality_of(data["quality"]), data["timestamp"])

    def __repr__(self) -> str:
        return f"OpcValue({self.value!r}, {self.quality.value}, t={self.timestamp})"
