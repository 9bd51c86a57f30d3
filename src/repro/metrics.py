"""Measurement helpers shared by tests and experiment runners.

Everything works off the structured :class:`~repro.simnet.trace.TraceLog`
the whole stack emits into, so the numbers reported by EXPERIMENTS.md
come from observable behaviour, not from the components' own claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.simnet.trace import TraceLog


@dataclass(frozen=True)
class FailoverTiming:
    """Decomposition of one failover, extracted from the trace."""

    fault_at: float
    detected_at: Optional[float]
    promoted_at: Optional[float]

    @property
    def detection_latency(self) -> Optional[float]:
        """Fault injection to peer-loss / failure declaration."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.fault_at

    @property
    def failover_latency(self) -> Optional[float]:
        """Fault injection to the backup's promotion."""
        if self.promoted_at is None:
            return None
        return self.promoted_at - self.fault_at


def failover_timing(trace: TraceLog, fault_at: float, promoting_node: str) -> FailoverTiming:
    """Extract detection/promotion times for a fault injected at *fault_at*."""
    detected = trace.first(category="engine", component=promoting_node, event="peer-lost", since=fault_at)
    if detected is None:
        detected = trace.first(
            category="engine", component=promoting_node, event="heartbeat-timeout", since=fault_at
        )
    promoted = trace.first(category="engine", component=promoting_node, event="takeover", since=fault_at)
    return FailoverTiming(
        fault_at=fault_at,
        detected_at=detected.time if detected is not None else None,
        promoted_at=promoted.time if promoted is not None else None,
    )


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/mean/p50/p95/max summary of a sample."""
    if not values:
        return {"n": 0, "min": math.nan, "mean": math.nan, "p50": math.nan, "p95": math.nan, "max": math.nan}
    ordered = sorted(values)

    def percentile(p: float) -> float:
        index = min(len(ordered) - 1, max(0, int(round(p * (len(ordered) - 1)))))
        return ordered[index]

    return {
        "n": len(ordered),
        "min": ordered[0],
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(0.50),
        "p95": percentile(0.95),
        "max": ordered[-1],
    }
