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
from typing import Dict, Optional


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


@dataclass
class OfttConfig:
    """Tunables for one OFTT deployment (shared by both pair nodes)."""

    # Failure detection (§2.2.1: heartbeats with a pre-specified timeout).
    heartbeat_period: float = 100.0
    heartbeat_timeout: float = 500.0
    #: Consecutive sweeps past the timeout before a component (or the
    #: peer) is declared failed.  1 = the paper's behaviour; higher
    #: values desensitise the detector (see repro.core.heartbeat).
    heartbeat_miss_threshold: int = 1
    #: Also catch component death via OS process-exit hooks (faster than
    #: the heartbeat timeout; disable to measure pure heartbeat latency).
    use_exit_hooks: bool = True

    # Checkpointing (§2.2.2).
    checkpoint_period: float = 1_000.0
    #: Checkpoints kept in each store (latest is what recovery uses).
    checkpoint_history: int = 8

    # Startup negotiation (§3.2).
    startup_wait: float = 1_000.0
    startup_retries: int = 5
    give_up_policy: GiveUpPolicy = GiveUpPolicy.GO_PRIMARY

    # Peer monitoring.
    peer_heartbeat_period: float = 100.0
    peer_heartbeat_timeout: float = 500.0

    # MSMQ store-and-forward retry (§2.2.3 diverter redelivery).  The
    # retry interval after attempt *n* is
    # ``min(msq_retry_interval * msq_retry_backoff**(n-1), msq_retry_max_interval)``
    # plus uniform jitter in ``[0, msq_retry_jitter]`` drawn from the sim
    # RNG (so replay determinism holds).  backoff=1.0 reproduces the old
    # fixed cadence.
    msq_retry_interval: float = 250.0
    msq_retry_backoff: float = 2.0
    msq_retry_max_interval: float = 2_000.0
    msq_retry_jitter: float = 25.0

    # Replication strategy (see repro.core.strategy).  "cold-passive" is
    # the paper's primary/backup behaviour and the default.
    replication_strategy: str = "cold-passive"
    #: Log-replay DR: node name of the disaster-recovery site ("" = no
    #: site wired; the strategy then degenerates to cold-passive).
    dr_node: str = ""

    # Recovery rules by component name; ``default_rule`` covers the rest.
    recovery_rules: Dict[str, RecoveryRule] = field(default_factory=dict)
    default_rule: RecoveryRule = field(default_factory=RecoveryRule)

    #: Ring-buffer capacity for recovery/policy decision logs.  Soak
    #: campaigns run for hours of simulated time; an unbounded decision
    #: list grows without limit, so both :class:`RecoveryManager` and the
    #: adaptive policy keep only the newest ``decision_log_limit`` entries.
    decision_log_limit: int = 256

    # Adaptive policy layer (repro.core.policy).  Off by default: with
    # ``adaptive_policy`` False the engine constructs no policy object and
    # every trace/wire byte is identical to the pre-policy engine (the
    # replay gate pins this).
    adaptive_policy: bool = False
    #: Restart governance: cap on the backed-off restart delay (the
    #: back-off factor is ``repro.core.policy.POLICY_COOLDOWN_BACKOFF``).
    policy_cooldown_max: float = 5_000.0
    #: Thrash detector: this many failures of one component inside
    #: ``repro.core.policy.POLICY_THRASH_WINDOW`` is a crash-loop — stop
    #: burning local restarts and escalate immediately.
    policy_thrash_threshold: int = 2
    #: A component stable this long has its failure history, backoff and
    #: escalation-ladder position cleared.
    policy_stability_window: float = 2_500.0
    #: Classifier: evidence window for failure/anomaly event counting.
    policy_anomaly_window: float = 3_000.0
    #: Pillar 3: allow runtime replication-strategy switching.
    policy_switch_strategies: bool = True
    #: Minimum time between strategy switches on one engine (anti-flap
    #: dwell; the chaos flapping monitor enforces a looser bound).
    policy_switch_dwell: float = 8_000.0

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
        if self.peer_heartbeat_timeout <= self.peer_heartbeat_period:
            raise ValueError("peer_heartbeat_timeout must exceed peer_heartbeat_period")
        if self.checkpoint_period <= 0:
            raise ValueError("checkpoint_period must be positive")
        if self.startup_retries < 0:
            raise ValueError("startup_retries must be non-negative")
        if self.checkpoint_history < 1:
            raise ValueError("checkpoint_history must be at least 1")
        if self.msq_retry_interval <= 0:
            raise ValueError("msq_retry_interval must be positive")
        if self.msq_retry_backoff < 1.0:
            raise ValueError("msq_retry_backoff must be at least 1.0")
        if self.msq_retry_max_interval < self.msq_retry_interval:
            raise ValueError("msq_retry_max_interval must be at least msq_retry_interval")
        if self.msq_retry_jitter < 0:
            raise ValueError("msq_retry_jitter must be non-negative")
        if self.replication_strategy not in REPLICATION_STRATEGIES:
            raise ValueError(
                f"unknown replication_strategy {self.replication_strategy!r}; "
                f"valid: {', '.join(REPLICATION_STRATEGIES)}"
            )
        if self.decision_log_limit < 1:
            raise ValueError("decision_log_limit must be at least 1")
        if self.policy_cooldown_max <= 0:
            raise ValueError("policy_cooldown_max must be positive")
        if self.policy_thrash_threshold < 2:
            raise ValueError("policy_thrash_threshold must be at least 2")
        if self.policy_stability_window <= 0:
            raise ValueError("policy_stability_window must be positive")
        if self.policy_anomaly_window <= 0:
            raise ValueError("policy_anomaly_window must be positive")
        if self.policy_switch_dwell <= 0:
            raise ValueError("policy_switch_dwell must be positive")


def replace_config(config: OfttConfig, **changes) -> OfttConfig:
    """``dataclasses.replace`` wrapper that re-validates the result."""
    updated = replace(config, **changes)
    updated.validate()
    return updated
