"""Live invariant monitors for chaos runs.

Each monitor watches one safety/liveness property of the OFTT pair while
a fault schedule plays out and records :class:`Violation` entries when
the property is broken.  Monitors are *grace-window aware*: transient
states that the protocol is designed to pass through (dual primary
immediately after a partition heals, unavailability during a failover)
only become violations when they persist longer than the protocol's own
recovery machinery should take.

The suite is polled by the runner every ``tick_period`` simulated ms and
additionally subscribes to engine checkpoint hooks
(:attr:`OfttEngine.on_checkpoint_submit` / ``on_checkpoint_stored``), so
sequence regressions are caught at the exact event, not at the next poll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import PEER
from repro.core.roles import PRIMARY
from repro.msq.manager import DEAD_LETTER_QUEUE


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_wire(self) -> Dict[str, Any]:
        """JSON-safe canonical form."""
        return {
            "invariant": self.invariant,
            "time": round(self.time, 3),
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }


class InvariantMonitor:
    """Base monitor: runner calls :meth:`on_tick` and :meth:`finalize`."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        #: (hook list, callback) pairs registered on engines; released
        #: by detach() so monitors never outlive the run they observed.
        self._hooked: List[Tuple[List, Any]] = []

    def attach(self, scenario: Any) -> None:
        """Called once before the run starts."""

    def on_engine(self, engine: Any) -> None:
        """Called for every engine instance seen (including reinstalls)."""

    def on_tick(self, scenario: Any, now: float) -> None:
        """Called every monitor tick."""

    def finalize(self, scenario: Any, now: float) -> None:
        """Called once when the horizon is reached."""

    def detach(self) -> None:
        """Remove every engine hook this monitor registered."""
        for hooks, callback in self._hooked:
            if callback in hooks:
                hooks.remove(callback)
        self._hooked = []

    def _hook(self, hooks: List, callback: Any) -> None:
        """Register *callback* on an engine hook list, remembering it."""
        hooks.append(callback)
        self._hooked.append((hooks, callback))

    def _violate(self, time: float, **detail: Any) -> None:
        # Once per reported breach, not per tick: each ticking monitor
        # sets a reported flag and stays quiet while it is set.
        self.violations.append(Violation(invariant=self.name, time=time, detail=detail))  # oftt-lint: ok[hot-no-slots]


def _connected_both_ways(scenario: Any) -> bool:
    a, b = scenario.pair.node_names
    network = scenario.network
    return network.path_ok(a, b) and network.path_ok(b, a)


def _all_alive(pair: Any) -> bool:
    engines = pair.engines
    for name in pair.node_names:
        if not engines[name].alive:
            return False
    return True


class SplitBrainMonitor(InvariantMonitor):
    """Exactly one active primary whenever the pair can talk.

    Dual primary under a (full or asymmetric) partition is *legitimate*:
    the backup must promote on peer loss or availability dies with the
    partition.  The safety property is that once connectivity exists in
    both directions, the incarnation tie-break demotes one side within a
    grace window.  Persisting past the window — or both copies executing
    the application — is split-brain.

    Under the ``log-replay-dr`` strategy the DR site is a third
    potential "brain": an activated site must stand down once a serving
    primary can reach it again (its pair heartbeats force standdown).
    A DR site that stays active past the grace window while a reachable
    primary serves is reported as a ``dr-standdown`` violation.
    """

    name = "split-brain"
    #: How long a dual primary, or an active DR site, may outlast the
    #: connectivity that should resolve it (ms).
    grace = 2_000.0

    def __init__(self) -> None:
        super().__init__()
        self._since: float = -1.0
        self._reported = False
        self._dr_since: float = -1.0
        self._dr_reported = False

    def on_tick(self, scenario: Any, now: float) -> None:
        pair = scenario.pair
        engines = pair.engines
        primaries = []
        for name in pair.node_names:
            engine = engines[name]
            if engine.alive and engine.role is PRIMARY:
                primaries.append(name)
        dual = len(primaries) > 1 and _connected_both_ways(scenario)
        if not dual:
            self._since = -1.0
            self._reported = False
        elif self._since < 0:
            self._since = now
        elif not self._reported and now - self._since > self.grace:
            self._reported = True
            running = pair.running_app_nodes()
            self._violate(
                now,
                primaries=sorted(primaries),
                running_apps=sorted(running),
                held_for=round(now - self._since, 3),
            )
        self._check_dr(scenario, primaries, now)

    def _check_dr(self, scenario: Any, primaries: List[str], now: float) -> None:
        dr_site = getattr(scenario, "dr_site", None)
        if dr_site is None or not dr_site.active:
            self._dr_since = -1.0
            self._dr_reported = False
            return
        network = scenario.network
        dr_node = dr_site.node_name
        serving = []
        for name in primaries:
            if network.path_ok(name, dr_node) and network.path_ok(dr_node, name):
                serving.append(name)
        if not serving:
            self._dr_since = -1.0
            self._dr_reported = False
            return
        if self._dr_since < 0:
            self._dr_since = now
            return
        if not self._dr_reported and now - self._dr_since > self.grace:
            self._dr_reported = True
            self._violate(
                now,
                kind="dr-standdown",
                primaries=sorted(serving),
                dr_node=dr_site.node_name,
                held_for=round(now - self._dr_since, 3),
            )


class CheckpointMonotonicityMonitor(InvariantMonitor):
    """Checkpoint sequences never regress, across takeovers included.

    Two concrete checks, fed by the engine hooks:

    * per engine instance, *submitted* sequences strictly increase (the
      FTIM must resume numbering above anything already stored, even
      after local restarts);
    * per engine instance and application, *stored* peer checkpoint
      sequences strictly increase (stale or replayed transfers must
      never overwrite newer mirrored state).
    """

    name = "checkpoint-monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._submitted: Dict[int, Dict[str, int]] = {}  # id(engine) -> app -> last seq
        self._stored: Dict[int, Dict[str, int]] = {}

    def on_engine(self, engine: Any) -> None:
        self._submitted.setdefault(id(engine), {})
        self._stored.setdefault(id(engine), {})

        def on_submit(eng: Any, checkpoint: Any) -> None:
            last = self._submitted[id(eng)].get(checkpoint.app_name, 0)
            if checkpoint.sequence <= last:
                self._violate(
                    eng.kernel.now,
                    node=eng.node_name,
                    app=checkpoint.app_name,
                    kind="submit",
                    sequence=checkpoint.sequence,
                    previous=last,
                )
            self._submitted[id(eng)][checkpoint.app_name] = checkpoint.sequence

        def on_stored(eng: Any, checkpoint: Any) -> None:
            last = self._stored[id(eng)].get(checkpoint.app_name, 0)
            if checkpoint.sequence <= last:
                self._violate(
                    eng.kernel.now,
                    node=eng.node_name,
                    app=checkpoint.app_name,
                    kind="stored",
                    sequence=checkpoint.sequence,
                    previous=last,
                )
            self._stored[id(eng)][checkpoint.app_name] = checkpoint.sequence

        self._hook(engine.on_checkpoint_submit, on_submit)
        self._hook(engine.on_checkpoint_stored, on_stored)


class DiverterConservationMonitor(InvariantMonitor):
    """The diverter transport never loses a message silently.

    Conservation over the client queue manager's counters: every message
    ever sent is locally delivered, acknowledged by a pair node, parked
    in the dead-letter queue (visible loss), or still pending retry —
    checked live every tick.  At finalize the dead-letter queue length
    must equal the dead-letter counter (no invisible drops on that path
    either).
    """

    name = "diverter-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._reported = False

    def _imbalance(self, qmgr: Any) -> int:
        stats = qmgr.stats
        accounted = stats["delivered_local"] + stats["acked"] + stats["dead_lettered"] + qmgr.pending_count()
        return stats["sent"] - accounted

    def on_tick(self, scenario: Any, now: float) -> None:
        if self._reported:
            return
        imbalance = self._imbalance(scenario.client_qmgr)
        if imbalance != 0:
            self._reported = True
            self._violate(now, imbalance=imbalance, stats=dict(scenario.client_qmgr.stats))

    def finalize(self, scenario: Any, now: float) -> None:
        qmgr = scenario.client_qmgr
        imbalance = self._imbalance(qmgr)
        if imbalance != 0 and not self._reported:
            self._violate(now, imbalance=imbalance, stats=dict(qmgr.stats))
        dlq_len = len(qmgr.queues[DEAD_LETTER_QUEUE])
        if dlq_len != qmgr.stats["dead_lettered"]:
            self._violate(now, dead_letter_queue=dlq_len, dead_lettered=qmgr.stats["dead_lettered"])


class RecoveryLatencyMonitor(InvariantMonitor):
    """Outages end within a bound while recovery is possible.

    An outage is any period where no live engine holds PRIMARY with all
    of its application copies executing — pure availability, so a dual
    primary (split-brain's concern) does not count as an outage as long
    as one of them serves.  The clock only advances while at least one
    engine on a booted machine is alive — if both machines are down
    there is nobody to recover, and the paper's middleware makes no
    promise.  Exceeding ``bound`` of recoverable outage is a liveness
    violation (one report per outage).
    """

    name = "recovery-latency"
    #: Recoverable outage one outage may accrue (ms).
    bound = 10_000.0

    def __init__(self) -> None:
        super().__init__()
        self._outage_accrued = 0.0
        self._last_tick: float = -1.0
        self._reported = False

    def _stable(self, scenario: Any) -> bool:
        pair = scenario.pair
        engines = pair.engines
        for name in pair.node_names:
            engine = engines[name]
            if engine.alive and engine.role is PRIMARY and engine.applications:
                for app in engine.applications.values():
                    if not app.running:
                        break
                else:
                    return True
        return False

    def _recoverable(self, scenario: Any) -> bool:
        pair = scenario.pair
        engines = pair.engines
        for name in pair.node_names:
            if engines[name].alive:
                return True
        return False

    def on_tick(self, scenario: Any, now: float) -> None:
        elapsed = now - self._last_tick if self._last_tick >= 0 else 0.0
        self._last_tick = now
        if self._stable(scenario):
            self._outage_accrued = 0.0
            self._reported = False
            return
        if self._recoverable(scenario):
            self._outage_accrued += elapsed
        if not self._reported and self._outage_accrued > self.bound:
            self._reported = True
            pair = scenario.pair
            self._violate(
                now,
                outage=round(self._outage_accrued, 3),
                roles={name: pair.engines[name].role.value for name in pair.node_names},
                alive={name: pair.engines[name].alive for name in pair.node_names},
            )

    def finalize(self, scenario: Any, now: float) -> None:
        if not self._stable(scenario) and self._recoverable(scenario) and not self._reported:
            if self._outage_accrued > self.bound:
                self._violate(now, outage=round(self._outage_accrued, 3), at_horizon=True)


class HeartbeatLivenessMonitor(InvariantMonitor):
    """Healthy connectivity clears peer suspicion within a grace window.

    If both engines are alive and the network has been bidirectionally
    healthy for longer than ``grace``, neither engine may *keep*
    suspecting its peer's heartbeat past the grace window — a stuck
    suspicion means the detector lost liveness (it would never trigger
    switchback/rejoin logic).  Momentary suspicion is allowed: delay
    faults (gray nodes, clock skew) legitimately trip the detector
    without ever breaking ``path_ok`` connectivity, and the next
    on-time heartbeat clears them; only suspicion that persists for
    ``grace`` while the network is healthy is a liveness loss.
    """

    name = "heartbeat-liveness"
    #: How long a suspicion may persist on a healthy network (ms).
    grace = 3_000.0

    def __init__(self) -> None:
        super().__init__()
        self._healthy_since: float = -1.0
        self._suspect_since: Dict[str, float] = {}
        self._reported = False

    def on_tick(self, scenario: Any, now: float) -> None:
        pair = scenario.pair
        engines = pair.engines
        suspect_since = self._suspect_since
        if not (_all_alive(pair) and _connected_both_ways(scenario)):
            self._healthy_since = -1.0
            suspect_since.clear()
            self._reported = False
            return
        if self._healthy_since < 0:
            self._healthy_since = now
            return
        for name in pair.node_names:
            if engines[name].monitor.is_suspected(PEER):
                suspect_since.setdefault(name, now)
            else:
                suspect_since.pop(name, None)
        grace = self.grace
        if self._reported or now - self._healthy_since <= grace:
            return
        stuck = []
        for name, since in suspect_since.items():
            if now - since > grace:
                stuck.append(name)
        if stuck:
            self._reported = True
            self._violate(now, nodes=sorted(stuck), healthy_for=round(now - self._healthy_since, 3))


class ReplicaFreshnessMonitor(InvariantMonitor):
    """Leader-follower: the follower's mirror keeps pace with the leader.

    The whole point of :class:`LeaderFollowerStrategy` is that updates
    stream continuously, so the follower can take over without the
    cold-passive checkpoint gap.  While both nodes are alive and
    bidirectionally connected, the follower must keep reaching the
    leader's submitted sequence: if it fails to advance past a fixed
    target sequence for longer than ``grace``, the replication stream is
    silently broken and a failover would lose exactly the state this
    strategy promises to preserve.  Inert (no hooks, no checks) under
    any other strategy.
    """

    name = "replica-freshness"
    #: How long the follower may stall on one target sequence (ms).
    grace = 5_000.0

    def __init__(self) -> None:
        super().__init__()
        self._enabled = False
        self._submitted: Dict[str, int] = {}  # node -> last submitted seq
        self._stored: Dict[str, int] = {}  # node -> max peer seq stored
        self._healthy_since: float = -1.0
        self._target: Optional[Tuple[int, float]] = None  # (seq to reach, since)
        self._reported = False

    def attach(self, scenario: Any) -> None:
        self._enabled = getattr(scenario, "strategy_name", "cold-passive") == "leader-follower"

    def on_engine(self, engine: Any) -> None:
        if not self._enabled:
            return

        def on_submit(eng: Any, checkpoint: Any) -> None:
            self._submitted[eng.node_name] = checkpoint.sequence

        def on_stored(eng: Any, checkpoint: Any) -> None:
            self._stored[eng.node_name] = max(self._stored.get(eng.node_name, 0), checkpoint.sequence)

        self._hook(engine.on_checkpoint_submit, on_submit)
        self._hook(engine.on_checkpoint_stored, on_stored)

    def on_tick(self, scenario: Any, now: float) -> None:
        if not self._enabled:
            return
        pair = scenario.pair
        engines = pair.engines
        both_alive = True
        primaries = []
        for name in pair.node_names:
            engine = engines[name]
            if not engine.alive:
                both_alive = False
            elif engine.role is PRIMARY:
                primaries.append(name)
        if not (both_alive and len(primaries) == 1 and _connected_both_ways(scenario)):
            self._healthy_since = -1.0
            self._target = None
            self._reported = False
            return
        if self._healthy_since < 0:
            self._healthy_since = now
            return
        primary = primaries[0]
        for follower in pair.node_names:
            if follower != primary:
                break
        submitted = self._submitted.get(primary, 0)
        stored = self._stored.get(follower, 0)
        if stored >= submitted:
            # Fully caught up; nothing outstanding to chase.
            self._target = None
            return
        if self._target is None or stored >= self._target[0]:
            # (Re)arm on the current head: the follower lags but was
            # still advancing — give it a fresh grace window per target.
            self._target = (submitted, now)
            return
        target_seq, since = self._target
        if not self._reported and now - since > self.grace and now - self._healthy_since > self.grace:
            self._reported = True
            self._violate(
                now,
                leader=primary,
                follower=follower,
                submitted=submitted,
                mirrored=stored,
                stalled_at=target_seq,
                stalled_for=round(now - since, 3),
            )


class StrategyFlappingMonitor(InvariantMonitor):
    """Runtime strategy switching must not flap.

    The adaptive policy may move a pair between replication strategies
    as the fault regime drifts, but each switch costs a full-image
    re-base on every FTIM; a policy oscillating faster than its dwell
    time is burning replication bandwidth for nothing.  More than
    ``bound`` switches by one engine inside ``window`` ms is flapping.
    Inert (hooks record nothing, no violations) when no engine ever
    switches — i.e. whenever the adaptive policy is off.
    """

    name = "strategy-flapping"
    #: Switches one engine may make inside ``window`` ms.
    bound = 3
    window = 10_000.0

    def __init__(self) -> None:
        super().__init__()
        self._switches: Dict[int, List[float]] = {}  # id(engine) -> switch times
        self._reported: Dict[int, bool] = {}

    def on_engine(self, engine: Any) -> None:
        self._switches.setdefault(id(engine), [])
        self._reported.setdefault(id(engine), False)

        def on_switch(eng: Any, old: str, new: str, reason: str) -> None:
            times = self._switches[id(eng)]
            now = eng.kernel.now
            times.append(now)
            times[:] = [t for t in times if t >= now - self.window]
            if len(times) > self.bound and not self._reported[id(eng)]:
                self._reported[id(eng)] = True
                self._violate(
                    now,
                    node=eng.node_name,
                    switches=len(times),
                    window=self.window,
                    latest=f"{old} -> {new} ({reason})",
                )

        self._hook(engine.on_strategy_switch, on_switch)


class RestartThrashMonitor(InvariantMonitor):
    """Local restarts must not crash-loop at full speed.

    A component that keeps dying should cost a bounded number of local
    restarts before the recovery layer escalates (static rules via
    ``max_local_restarts``, the adaptive policy via its thrash
    detector + back-off).  A burst of more than ``bound`` restarts by
    one engine inside ``window`` ms means restart governance is lost —
    exactly what the ``disable-cooldown`` sabotage removes, so the
    chaos self-test can prove this monitor catches it.
    """

    name = "restart-thrash"
    #: Local restarts one engine may make inside ``window`` ms.
    bound = 5
    window = 4_000.0

    def __init__(self) -> None:
        super().__init__()
        self._last_counts: Dict[int, int] = {}  # id(engine) -> local_restart_count
        self._bursts: Dict[int, List[Tuple[float, int]]] = {}  # (time, restarts)
        self._engines: Dict[int, Any] = {}
        self._reported: Dict[int, bool] = {}

    def on_engine(self, engine: Any) -> None:
        self._engines[id(engine)] = engine
        self._last_counts.setdefault(id(engine), engine.local_restart_count)
        self._bursts.setdefault(id(engine), [])
        self._reported.setdefault(id(engine), False)

    def on_tick(self, scenario: Any, now: float) -> None:
        last_counts = self._last_counts
        all_bursts = self._bursts
        reported = self._reported
        oldest = now - self.window
        for key, engine in self._engines.items():
            count = engine.local_restart_count
            bursts = all_bursts[key]
            delta = count - last_counts[key]
            if not delta and not bursts:
                continue  # idle: no restart since the last tick, no burst to age out
            last_counts[key] = count
            if delta > 0:
                bursts.append((now, delta))
            bursts[:] = [(t, n) for t, n in bursts if t >= oldest]
            total = sum(n for _, n in bursts)
            if total > self.bound and not reported[key]:
                reported[key] = True
                self._violate(
                    now,
                    node=engine.node_name,
                    restarts=total,
                    window=self.window,
                )


def default_monitors() -> List[InvariantMonitor]:
    """The standard monitor suite (fresh instances)."""
    return [
        SplitBrainMonitor(),
        CheckpointMonotonicityMonitor(),
        DiverterConservationMonitor(),
        RecoveryLatencyMonitor(),
        HeartbeatLivenessMonitor(),
        ReplicaFreshnessMonitor(),
        StrategyFlappingMonitor(),
        RestartThrashMonitor(),
    ]
