"""Adaptive fault-tolerance policy: the layer between detection and action.

The paper's engine wires detection (heartbeat silence, watchdog expiry,
process exit) straight into a *static* recovery rule (§2.2.1): N local
restarts inside a window, then escalate.  That is the right default, but
it leaves three failure shapes on the table:

* **Crash loops** burn every budgeted restart at full speed before
  escalating, even when the first two restarts already proved the fault
  is not transient.
* **Gray nodes** (§3.1's unreliable-signal world: delayed heartbeats,
  perfmon counters that cannot be trusted for liveness) trip the peer
  watch and cause spurious failovers, while genuinely hung components
  wait out the full default timeout.
* **Fault regimes drift**: the replication strategy chosen at install
  time is not the right one for every phase of a deployment's life.

:class:`AdaptivePolicy` closes these gaps with three cooperating parts:

1. *Self-healing restart governance* — exponential back-off between
   local restarts, a thrash detector that escalates a crash-looping
   component early, an escalation ladder (local restart → switchover →
   middleware reinstall), and history clearing after sustained
   stability so an old incident never taxes a new one.
2. *Anomaly-driven detector tuning* — :class:`FaultClassifier` labels
   the current fault regime from the component failures the engine
   handles and the peer heartbeat's inter-arrival skew; the policy
   re-tunes watch sensitivity per regime.
3. *Runtime strategy switching* — when the regime calls for a hotter
   standby the policy moves the live pair onto a different replication
   strategy through the engine's safe-handoff protocol, with a dwell
   time so regime flicker never turns into strategy flapping.

Everything here is gated on ``OfttConfig.adaptive_policy``: with the
flag off (the default) no policy object exists and the engine's traces
are byte-identical to the static-rule build.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import PEER_HEARTBEAT_PERIOD, RecoveryAction
from repro.core.recovery import RecoveryDecision
from repro.core.roles import Role
from repro.core.status import ComponentStatus
from repro.core.strategy import PEER

if TYPE_CHECKING:
    from repro.core.engine import OfttEngine
    from repro.simnet.kernel import ScheduleHandle

#: Restart governance: exponential back-off factor applied to the
#: rule's ``restart_delay`` per consecutive local restart (attempt n
#: waits ``restart_delay * backoff**(n-1)``, capped at
#: :data:`POLICY_COOLDOWN_MAX`).
POLICY_COOLDOWN_BACKOFF = 2.0
#: Restart governance: cap on the backed-off restart delay (ms).
POLICY_COOLDOWN_MAX = 5_000.0
#: Thrash detector window (ms): :data:`POLICY_THRASH_THRESHOLD`
#: failures of one component inside it is a crash loop — stop burning
#: local restarts and escalate immediately.
POLICY_THRASH_WINDOW = 1_500.0
POLICY_THRASH_THRESHOLD = 2
#: A component stable this long (ms) has its failure history, backoff
#: and escalation-ladder position cleared.
POLICY_STABILITY_WINDOW = 2_500.0
#: Classifier: evidence window (ms) for failure and gray-gap evidence.
POLICY_ANOMALY_WINDOW = 3_000.0
#: Classifier: component failures inside the anomaly window that mark
#: the regime transient-crashy.
POLICY_CRASHY_THRESHOLD = 2
#: Classifier: a peer-heartbeat inter-arrival gap above this multiple of
#: ``PEER_HEARTBEAT_PERIOD`` is a latency-skew anomaly (gray evidence).
POLICY_GRAY_GAP_FACTOR = 3.0
#: Detector tuning while gray evidence is live: the peer watch tolerates
#: this many consecutive missed sweeps (instead of
#: ``heartbeat_miss_threshold``) before declaring peer loss.
POLICY_GRAY_MISS_TOLERANCE = 4
#: Detector tuning while crashy or gray evidence is live: component
#: watch timeouts are scaled by this factor (<1 tightens hang detection;
#: component heartbeats are same-node calls, so tightening carries no
#: network false-positive risk).
POLICY_TIGHTEN_SCALE = 0.5
#: Escalation gating: a failover is deferred to a local restart when the
#: peer has been silent longer than this multiple of
#: ``PEER_HEARTBEAT_PERIOD`` (handing off toward a possibly unreachable
#: peer risks a demote-into-partition outage).
POLICY_PEER_STALE_FACTOR = 2.0
#: Minimum time (ms) between strategy switches on one engine (anti-flap
#: dwell; the chaos flapping monitor enforces a looser bound).
POLICY_SWITCH_DWELL = 8_000.0


class FaultRegime(Enum):
    """Classifier verdict about the deployment's current fault shape."""

    HEALTHY = "healthy"
    #: Components are crashing repeatedly: favour fast detection and
    #: hot standby.
    CRASHY = "transient-crashy"
    #: Peer heartbeats arrive but late/skewed — a gray node or link.
    #: Favour failover *suppression*: demand more evidence before
    #: declaring the peer dead.
    GRAY = "gray"
    #: Peer heartbeats have stopped entirely while the local node is
    #: otherwise fine.  Failover would demote into a void.
    PARTITIONED = "partitioned"


class FaultClassifier:
    """Labels the fault regime from two evidence streams.

    The streams are the component failures the engine handles and the
    peer heartbeat's inter-arrival gaps: heartbeats are the paper's only
    trustworthy liveness signal.  (§3.1's NT perfmon lies about thread
    identity, and every component death already reaches the engine
    through the process-exit hook.)
    """

    def __init__(self, engine: "OfttEngine") -> None:
        self.engine = engine
        self.kernel = engine.kernel
        self.regime = FaultRegime.HEALTHY
        self._crash_events: List[float] = []
        self._gray_evidence_at: Optional[float] = None

    def note_component_failure(self, _component: str) -> None:
        """A component failure was handled; counts as crash evidence."""
        self._crash_events.append(self.kernel.now)

    def sample(self) -> None:
        """Refresh evidence from the heartbeat stream."""
        now = self.kernel.now
        self._crash_events = [t for t in self._crash_events if t >= now - POLICY_ANOMALY_WINDOW]
        # Latency skew: the largest recent beat-to-beat gap on the peer
        # channel.  A gap well past the send period with beats still
        # arriving is the gray-node signature — delay, not death.
        gap = self.engine.monitor.largest_gap(PEER)
        if gap is not None and gap > POLICY_GRAY_GAP_FACTOR * PEER_HEARTBEAT_PERIOD:
            self._gray_evidence_at = now

    def classify(self) -> FaultRegime:
        """Label the current regime (most constraining evidence wins)."""
        gray_at = self._gray_evidence_at
        if not self.engine.peer_present:
            # Peer silence dominates: whatever else is wrong, failover
            # has nowhere to go, so act conservatively.
            self.regime = FaultRegime.PARTITIONED
        elif len(self._crash_events) >= POLICY_CRASHY_THRESHOLD:
            self.regime = FaultRegime.CRASHY
        elif gray_at is not None and self.kernel.now - gray_at <= POLICY_ANOMALY_WINDOW:
            self.regime = FaultRegime.GRAY
        else:
            self.regime = FaultRegime.HEALTHY
        return self.regime


class AdaptivePolicy:
    """Regime-aware recovery governance for one engine.

    Sits between the engine's failure handler and the static
    :class:`~repro.core.recovery.RecoveryManager`: the manager still
    produces the baseline decision, the policy amends it (back-off,
    early escalation, deferral) and owns the periodic regime loop.
    """

    def __init__(self, engine: "OfttEngine") -> None:
        self.engine = engine
        self.kernel = engine.kernel
        self.config = engine.config
        self.classifier = FaultClassifier(engine)
        #: Thrash/cooldown governor switch — chaos sabotage target
        #: ("disable-cooldown" proves the thrash monitor catches its loss).
        self.governor_enabled = True
        #: Escalation ladder stage per component: 0 = local restarts,
        #: 1 = switchover attempted, 2 = reinstall reached.
        self._stage: Dict[str, int] = {}
        self._recent: Dict[str, List[float]] = {}
        self._last_failure_at: Dict[str, float] = {}
        self._tuned_regime: Optional[FaultRegime] = None
        self._last_switch_at: Optional[float] = None
        self._running = False
        self._timer: Optional[ScheduleHandle] = None

    # -- recovery governance ------------------------------------------------------

    def decide(self, component: str, reason: str) -> RecoveryDecision:
        """Amend the static rule's decision for one failure event."""
        base = self.engine.recovery.on_failure(component, reason)
        now = self.kernel.now
        self.classifier.note_component_failure(component)
        self._last_failure_at[component] = now
        decision = base
        if self.governor_enabled:
            recent = self._recent.setdefault(component, [])
            recent[:] = [t for t in recent if t >= now - POLICY_THRASH_WINDOW]
            recent.append(now)
            thrashing = len(recent) >= POLICY_THRASH_THRESHOLD
            if base.action is RecoveryAction.LOCAL_RESTART:
                if thrashing:
                    # Crash loop: stop burning restarts, climb the ladder.
                    decision = self._escalate(
                        base,
                        f"{reason} (thrash: {len(recent)} failures in "
                        f"{POLICY_THRASH_WINDOW:.0f}ms)",
                    )
                else:
                    # Exponential back-off between local attempts.
                    delay = min(
                        base.delay * POLICY_COOLDOWN_BACKOFF ** (base.restart_number - 1),
                        POLICY_COOLDOWN_MAX,
                    )
                    decision = replace(base, delay=delay)
            elif base.action is RecoveryAction.FAILOVER:
                decision = self._escalate(base, base.reason)
        # Peer-stale deferral: a failover decided while the peer looks
        # stale would demote us into a void (the takeover message dies
        # on the wire and the backup's own peer-loss promotion races a
        # multi-hundred-ms outage).  Restart locally instead; the ladder
        # stage is kept so the next failure can still escalate.
        if decision.action is RecoveryAction.FAILOVER and self._peer_stale():
            rule = self.config.rule_for(component)
            decision = replace(
                decision,
                action=RecoveryAction.LOCAL_RESTART,
                restart_number=max(1, base.restart_number),
                delay=rule.restart_delay,
                reason=f"{decision.reason} (deferred: peer stale)",
            )
        return decision

    def _escalate(self, base: RecoveryDecision, reason: str) -> RecoveryDecision:
        """Next rung of the ladder: switchover, then reinstall.

        Reinstall is only reached when a switchover was already tried
        and the peer still is not there to take over — the middleware
        stack itself is the remaining suspect.
        """
        stage = self._stage.get(base.component, 0)
        if stage >= 1 and not self.engine.peer_present:
            self._stage[base.component] = 2
            action = RecoveryAction.REINSTALL
        else:
            self._stage[base.component] = max(stage, 1)
            action = RecoveryAction.FAILOVER
        return replace(base, action=action, restart_number=0, delay=0.0, reason=reason)

    def _peer_stale(self) -> bool:
        if not self.engine.peer_present:
            return True
        silence = self.engine.monitor.silence(PEER)
        return silence is not None and silence > POLICY_PEER_STALE_FACTOR * PEER_HEARTBEAT_PERIOD

    # -- periodic regime loop -----------------------------------------------------

    def start(self) -> None:
        """Begin the regime loop (same cadence as the heartbeat sweep)."""
        if self._running:
            return
        self._running = True
        self._cancel_timer()
        self._timer = self.kernel.schedule(
            self.engine.scaled(self.config.heartbeat_period), self._tick
        )

    def stop(self) -> None:
        self._running = False
        self._cancel_timer()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _tick(self) -> None:
        if not self._running or not self.engine.alive:
            return
        self.classifier.sample()
        regime = self.classifier.classify()
        self._apply_regime(regime)
        self._maybe_switch_strategy(regime)
        self._stability_sweep()
        self._timer = self.kernel.schedule(
            self.engine.scaled(self.config.heartbeat_period), self._tick
        )

    def _apply_regime(self, regime: FaultRegime) -> None:
        if regime is self._tuned_regime:
            return
        monitor = self.engine.monitor
        # Component watches are same-node direct calls — no network
        # between the FTIM and the engine — so tightening them converts
        # hang-detection latency into almost no false-positive risk.
        # The peer watch rides the LAN and gets the opposite treatment:
        # under gray evidence it must tolerate more consecutive misses.
        tighten = regime in (FaultRegime.CRASHY, FaultRegime.GRAY)
        for name in sorted(self.engine.components):
            monitor.tune(name, timeout_scale=POLICY_TIGHTEN_SCALE if tighten else None)
        if regime is FaultRegime.GRAY:
            monitor.tune(PEER, miss_tolerance=POLICY_GRAY_MISS_TOLERANCE)
        else:
            monitor.tune(PEER)
        self._tuned_regime = regime
        self.engine.trace.emit("engine", self.engine.node_name, "policy-regime", regime=regime.value)

    def _maybe_switch_strategy(self, regime: FaultRegime) -> None:
        if self.engine.role is not Role.PRIMARY:
            return  # the backup follows the primary via heartbeats
        base = self.config.replication_strategy
        if base not in ("cold-passive", "leader-follower"):
            # A DR-wired baseline has topology (the mirror site) the
            # policy cannot re-create; leave it alone.
            return
        if regime is FaultRegime.PARTITIONED:
            return  # the peer cannot follow a switch it cannot hear
        target = "leader-follower" if regime in (FaultRegime.CRASHY, FaultRegime.GRAY) else base
        if target == self.engine.strategy_name:
            return
        now = self.kernel.now
        if self._last_switch_at is not None and now - self._last_switch_at < POLICY_SWITCH_DWELL:
            return  # dwell: regime flicker must not become strategy flapping
        self._last_switch_at = now
        self.engine.switch_strategy(target, f"regime {regime.value}")

    def _stability_sweep(self) -> None:
        """Forget old incidents after sustained stability."""
        now = self.kernel.now
        for component in sorted(self._last_failure_at):
            if now - self._last_failure_at[component] < POLICY_STABILITY_WINDOW:
                continue
            record = self.engine.components.get(component)
            if record is not None and record.status is not ComponentStatus.RUNNING:
                continue
            del self._last_failure_at[component]
            self._stage.pop(component, None)
            self._recent.pop(component, None)
            self.engine.recovery.clear(component)

    def __repr__(self) -> str:
        return f"AdaptivePolicy(regime={self.classifier.regime.value})"
