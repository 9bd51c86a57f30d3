"""OFTT configuration: timeouts, periods, recovery rules.

"How to recover from a detected failure is controlled by the recovery rule
that specifies whether to initiate a local recovery (e.g., a transient
fault), or to transfer control to the backup node (e.g., a permanent
fault).  An application that uses the OFTT can explicitly specify the
recovery rule either statically at compilation time or dynamically at
run-time" (§2.2.1).  Both are supported here: pass rules at construction
or swap them live with :meth:`OfttEngine.set_recovery_rule`.

All durations are simulated milliseconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict


class RecoveryAction(enum.Enum):
    """What the engine does about a failed component."""

    LOCAL_RESTART = "local-restart"
    FAILOVER = "failover"
    IGNORE = "ignore"
    #: Rebuild this node's whole OFTT stack (engine + FTIMs + app copy).
    #: The adaptive policy's last ladder rung: only emitted by
    #: :mod:`repro.core.policy`, never by a static rule.
    REINSTALL = "reinstall"


class GiveUpPolicy(enum.Enum):
    """What a node does when startup negotiation never hears the peer.

    ``SHUTDOWN`` is the paper's original logic ("It will shut down itself
    if it does not receive the message after a time-out period"), which
    §3.2 reports caused frequent false shutdowns under NT's start-up
    non-determinism.  ``GO_PRIMARY`` is the availability-oriented
    alternative: after exhausting retries, assume the peer is absent and
    run alone.
    """

    SHUTDOWN = "shutdown"
    GO_PRIMARY = "go-primary"


#: Valid ``OfttConfig.replication_strategy`` values.  Kept as a literal
#: here (the strategy registry lives in :mod:`repro.core.strategy`,
#: which imports this module); tests pin the two lists equal.
REPLICATION_STRATEGIES = ("cold-passive", "leader-follower", "log-replay-dr")


@dataclass(frozen=True)
class RecoveryRule:
    """Per-component recovery policy."""

    #: Local restarts attempted (within the window) before escalating.
    max_local_restarts: int = 1
    #: Delay before a local restart begins.
    restart_delay: float = 100.0
    #: Failures inside this window count against ``max_local_restarts``.
    transient_window: float = 30_000.0
    #: Action once local restarts are exhausted.
    escalation: RecoveryAction = RecoveryAction.FAILOVER

    @staticmethod
    def always_failover() -> "RecoveryRule":
        """Treat every failure as permanent."""
        return RecoveryRule(max_local_restarts=0)

    @staticmethod
    def local_only(max_restarts: int = 1_000_000) -> "RecoveryRule":
        """Never fail over; keep restarting locally."""
        return RecoveryRule(max_local_restarts=max_restarts, escalation=RecoveryAction.IGNORE)


#: Period of each engine's heartbeat to its peer (ms).  The peer watch
#: times out after ``OfttConfig.peer_heartbeat_timeout``; the adaptive
#: policy's gray-gap and peer-stale thresholds are multiples of it.
PEER_HEARTBEAT_PERIOD = 100.0


@dataclass
class OfttConfig:
    """Tunables for one OFTT deployment (shared by both pair nodes).

    The engine's other settings are module constants beside the code
    that reads them: :data:`PEER_HEARTBEAT_PERIOD` here, the pair's MSMQ
    retry cadence in :mod:`repro.core.cluster`, the decision-log bound
    in :mod:`repro.core.recovery` and the adaptive policy's thresholds
    in :mod:`repro.core.policy`.  Component deaths are always caught by
    the process-exit hook as well as by the heartbeat timeout.
    """

    # Failure detection (§2.2.1: heartbeats with a pre-specified timeout).
    heartbeat_period: float = 100.0
    heartbeat_timeout: float = 500.0
    #: Consecutive sweeps past the timeout before a component (or the
    #: peer) is declared failed.  1 = the paper's behaviour; higher
    #: values desensitise the detector (see repro.core.heartbeat).
    heartbeat_miss_threshold: int = 1

    # Checkpointing (§2.2.2).
    checkpoint_period: float = 1_000.0

    # Startup negotiation (§3.2).
    startup_wait: float = 1_000.0
    startup_retries: int = 5
    give_up_policy: GiveUpPolicy = GiveUpPolicy.GO_PRIMARY

    # Peer monitoring (the send period is PEER_HEARTBEAT_PERIOD).
    peer_heartbeat_timeout: float = 500.0

    # Replication strategy (see repro.core.strategy).  "cold-passive" is
    # the paper's primary/backup behaviour and the default.
    replication_strategy: str = "cold-passive"
    #: Log-replay DR: node name of the disaster-recovery site ("" = no
    #: site wired; the strategy then degenerates to cold-passive).
    dr_node: str = ""

    # Recovery rules by component name; ``default_rule`` covers the rest.
    recovery_rules: Dict[str, RecoveryRule] = field(default_factory=dict)
    default_rule: RecoveryRule = field(default_factory=RecoveryRule)

    # Adaptive policy layer (repro.core.policy).  Off by default: with
    # ``adaptive_policy`` False the engine constructs no policy object and
    # every trace/wire byte is identical to the pre-policy engine (the
    # replay gate pins this).
    adaptive_policy: bool = False

    def rule_for(self, component: str) -> RecoveryRule:
        """The recovery rule governing *component*."""
        return self.recovery_rules.get(component, self.default_rule)

    def with_rule(self, component: str, rule: RecoveryRule) -> "OfttConfig":
        """Copy of this config with one component's rule replaced."""
        rules = dict(self.recovery_rules)
        rules[component] = rule
        return replace_config(self, recovery_rules=rules)

    def validate(self) -> None:
        """Sanity-check relationships between the tunables."""
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.heartbeat_timeout <= self.heartbeat_period:
            raise ValueError("heartbeat_timeout must exceed heartbeat_period")
        if self.heartbeat_miss_threshold < 1:
            raise ValueError("heartbeat_miss_threshold must be at least 1")
        if self.peer_heartbeat_timeout <= PEER_HEARTBEAT_PERIOD:
            raise ValueError("peer_heartbeat_timeout must exceed the peer heartbeat period")
        if self.checkpoint_period <= 0:
            raise ValueError("checkpoint_period must be positive")
        if self.startup_retries < 0:
            raise ValueError("startup_retries must be non-negative")
        if self.replication_strategy not in REPLICATION_STRATEGIES:
            raise ValueError(
                f"unknown replication_strategy {self.replication_strategy!r}; "
                f"valid: {', '.join(REPLICATION_STRATEGIES)}"
            )


def replace_config(config: OfttConfig, **changes) -> OfttConfig:
    """``dataclasses.replace`` wrapper that re-validates the result."""
    updated = replace(config, **changes)
    updated.validate()
    return updated
