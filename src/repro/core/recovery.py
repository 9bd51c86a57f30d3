"""Recovery management: transient vs permanent failure decisions.

"How to recover from a detected failure is controlled by the recovery
rule that specifies whether to initiate a local recovery (e.g., a
transient fault), or to transfer control to the backup node (e.g., a
permanent fault)" (§2.2.1).

:class:`RecoveryManager` keeps per-component failure history and converts
each failure event into a :class:`~repro.core.config.RecoveryAction`
according to the configured rule: up to ``max_local_restarts`` failures
inside the ``transient_window`` are handled locally; beyond that the rule
escalates (normally to failover).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import OfttConfig, RecoveryAction, RecoveryRule
from repro.simnet.kernel import SimKernel


@dataclass
class RecoveryDecision:
    """The outcome of one failure event."""

    component: str
    action: RecoveryAction
    restart_number: int  # which local attempt this is (0 when not local)
    delay: float  # how long to wait before acting
    reason: str


@dataclass
class _History:
    """Recent failure times for one component."""

    failures: List[float] = field(default_factory=list)


class RecoveryManager:
    """Applies recovery rules to failure events."""

    def __init__(self, kernel: SimKernel, config: OfttConfig) -> None:
        self.kernel = kernel
        self.config = config
        self._history: Dict[str, _History] = {}

    def set_rule(self, component: str, rule: RecoveryRule) -> None:
        """Dynamic rule change (the paper's run-time option).

        Mutates the *shared* config's rule table in place.  Rebinding
        ``self.config`` to a modified copy (the old behaviour) silently
        desynced this manager from the engine that constructed it: after
        one dynamic rule change the two disagreed on every subsequently
        edited setting.  Both pair nodes hold the same config object, so
        a run-time rule change is deployment-wide — matching the paper's
        model of one recovery policy per logical unit.
        """
        self.config.recovery_rules[component] = rule

    def on_failure(self, component: str, reason: str) -> RecoveryDecision:
        """Record a failure and decide what to do about it."""
        rule = self.config.rule_for(component)
        history = self._history.setdefault(component, _History())
        now = self.kernel.now
        cutoff = now - rule.transient_window
        history.failures = [t for t in history.failures if t >= cutoff]
        history.failures.append(now)
        recent = len(history.failures)
        if recent <= rule.max_local_restarts:
            return RecoveryDecision(
                component=component,
                action=RecoveryAction.LOCAL_RESTART,
                restart_number=recent,
                delay=rule.restart_delay,
                reason=reason,
            )
        return RecoveryDecision(
            component=component,
            action=rule.escalation,
            restart_number=0,
            delay=0.0,
            reason=f"{reason} (local restarts exhausted: {recent - 1} in window)",
        )

    def clear(self, component: str) -> None:
        """Forget a component's failure history (after stable recovery)."""
        self._history.pop(component, None)
