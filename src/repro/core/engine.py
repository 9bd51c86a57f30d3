"""The OFTT Engine.

"The OFTT engine is the core of the OFTT toolkit and controls all aspects
of fault tolerance": role management, failure detection, recovery
management, and status reporting (§2.2.1).  It "is implemented as a
client-side COM server and runs as a separate process started by the
application" — here it owns an :class:`~repro.nt.process.NTProcess` of
its own, so the §4 demo (d) *middleware failure* is simply killing that
process.

Inter-engine protocol (port ``oftt.engine``): heartbeats carrying role
and incarnation, role announcements, checkpoint transfer + ack, and the
takeover handshake used for deliberate switchovers (``OFTTDistress``,
recovery-rule escalation).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Union

from repro.com.interfaces import declare_interface
from repro.com.object import ComObject
from repro.core.appdriver import NodeContext, OfttApplication
from repro.core.checkpoint import Checkpoint, CheckpointStore
from repro.core.config import PEER_HEARTBEAT_PERIOD, RecoveryAction, RecoveryRule
from repro.core.heartbeat import HeartbeatMonitor
from repro.core.policy import AdaptivePolicy
from repro.core.recovery import RecoveryManager
from repro.core.roles import BACKUP, PRIMARY, Role, RoleNegotiator, role_of
from repro.core.status import (
    FAILED,
    HARDWARE,
    OFTT_ENGINE,
    RUNNING,
    ComponentKind,
    ComponentStatus,
    StatusReport,
)
from repro.core.strategy import PEER, create_strategy
from repro.core.watchdog import WatchdogTimer
from repro.errors import OfttError, WatchdogError
from repro.nt.process import NTProcess
from repro.simnet.kernel import ScheduleHandle

ENGINE_PORT = "oftt.engine"
STATUS_PORT = "oftt.status"
DIVERTER_PORT = "oftt.diverter"

#: How long :meth:`OfttEngine.ack_event_for` waits for the peer's
#: checkpoint acknowledgement by default (ms).
CHECKPOINT_ACK_TIMEOUT = 1_000.0
#: Period of the status reports to the System Monitor, and of the
#: primary's role re-broadcast to diverter clients (ms, §2.2.1/§2.2.4).
STATUS_REPORT_PERIOD = 1_000.0

IENGINE = declare_interface(
    "IOFTTEngine",
    ("GetRole", "GetStatusTable", "RequestSwitchover", "GetCheckpointInfo"),
)


class _Component:
    """Engine-side record of one monitored component."""

    __slots__ = ("name", "kind", "process", "status", "exit_hook")

    def __init__(self, name: str, kind: ComponentKind, process: NTProcess) -> None:
        self.name = name
        self.kind = kind
        self.process = process
        self.status = ComponentStatus.RUNNING
        #: Exit hook appended to process.on_exit, kept so unregistering
        #: the component can remove it again.
        self.exit_hook = None


class OfttEngine(ComObject):
    """One node's OFTT engine."""

    IMPLEMENTS = (IENGINE,)

    def __init__(
        self,
        context: NodeContext,
        peer_node: str,
        application: Union[OfttApplication, List[OfttApplication], None] = None,
        monitor_nodes: Optional[List[str]] = None,
        subscriber_nodes: Optional[List[str]] = None,
    ) -> None:
        super().__init__()
        self.context = context
        self.config = context.config
        self.kernel = context.kernel
        self.trace = context.trace
        self.node_name = context.node_name
        self.peer_node = peer_node
        if application is None:
            app_list: List[OfttApplication] = []
        elif isinstance(application, OfttApplication):
            app_list = [application]
        else:
            app_list = list(application)
        #: Managed applications by component name (launched when primary).
        self.applications: Dict[str, OfttApplication] = {app.name: app for app in app_list}
        self.monitor_nodes = list(monitor_nodes or [])
        self.subscriber_nodes = list(subscriber_nodes or [])
        context.engine = self

        # The engine's own OS process ("runs as a separate process").
        self.process = context.system.create_process("oftt-engine")
        self.process.bind_port(ENGINE_PORT, self._on_engine_message)
        self.process.on_exit.append(self._on_process_exit)
        self.process.start()
        #: Whether the engine process is still running.  The process's
        #: first exit hook (:meth:`_on_process_exit`) clears it, in the
        #: call that ends the process, so it reads what
        #: ``process.alive`` reads for every caller.
        self.alive = True
        self._system = context.system
        #: ``Network.send`` bound once: the engine's frames skip
        #: ``NetNode.send``, which only adds the source name.
        self._net_send = context.system.node.network.send

        self.negotiator = RoleNegotiator(
            kernel=self.kernel,
            node_name=self.node_name,
            peer_name=peer_node,
            config=self.config,
            send=self._send_to_peer,
            on_decided=self._on_role_decided,
            on_shutdown=self._on_startup_shutdown,
            on_demoted=self._on_demoted,
            trace=self.trace,
        )
        self.monitor = HeartbeatMonitor(
            self.kernel,
            self.config.heartbeat_period,
            self._on_heartbeat_failure,
            miss_threshold=self.config.heartbeat_miss_threshold,
        )
        self.recovery = RecoveryManager(self.kernel, self.config)
        #: Replication strategy: owns the checkpoint policy, where a
        #: checkpoint is shipped and the heartbeat side channel (see
        #: repro.core.strategy).
        self.strategy = create_strategy(self.config.replication_strategy, self)
        self.strategy_name = self.config.replication_strategy
        self.strategy_switch_count = 0
        #: Observation hooks: callbacks (engine, old_name, new_name, reason)
        #: fired after a runtime strategy switch (flapping monitor).
        self.on_strategy_switch: List = []
        #: Deployment-provided ladder stage 3: reinstall this node's
        #: middleware stack (set by OfttPair; None = fall back to
        #: switchover).  Only the adaptive policy ever asks for it.
        self.reinstall_hook = None
        #: Adaptive policy layer — absent (None) unless opted in, so the
        #: default configuration's behaviour is byte-identical.
        self.policy: Optional[AdaptivePolicy] = (
            AdaptivePolicy(self) if self.config.adaptive_policy else None
        )
        #: Checkpoints of the *local* application (for local restart).
        self.local_store = CheckpointStore()
        #: Checkpoints mirrored from the *peer's* application (for failover).
        self.peer_store = CheckpointStore()
        self.components: Dict[str, _Component] = {}
        self.watchdogs: Dict[str, WatchdogTimer] = {}
        # Per-engine takeover ids: a class-level counter would carry over
        # between scenarios in one Python process, so the takeover_id in
        # the switchover-initiated trace would differ run-to-run.  The id
        # only disambiguates this engine's pending handoff, so restarting
        # from 1 per instance is safe.
        self._takeover_ids = itertools.count(1)
        self.acked_sequence = 0
        self.peer_present = False
        self.degraded = False
        self.switchover_count = 0
        self.local_restart_count = 0
        self._dual_backup_streak = 0
        #: Wire size of every checkpoint submitted (pre-merge, so
        #: incremental deltas report their actual transfer cost).
        self.checkpoint_sizes: List[int] = []
        #: Peer checkpoints received, stored or not.
        self.checkpoints_received = 0
        #: Waiters for peer acknowledgement of a sequence (durable saves).
        self._ack_waiters: List = []  # (sequence, Event) pairs
        #: Handles of the heartbeat timer (the tick, or the peer
        #: heartbeat loop once the tick split) and of the status report
        #: loop, cancelled on process exit so a dead engine leaves
        #: nothing in the kernel.
        self._hb_timer: Optional[ScheduleHandle] = None
        self._report_timer: Optional[ScheduleHandle] = None
        #: Observation hooks for invariant monitors and fault triggers
        #: (repro.chaos): fired after a local checkpoint is submitted /
        #: after a peer checkpoint is stored.  Callbacks must not mutate
        #: engine state.
        self.on_checkpoint_submit: List = []  # callbacks (engine, Checkpoint)
        self.on_checkpoint_stored: List = []  # callbacks (engine, Checkpoint)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin operation: watch the peer, negotiate roles, report.

        With ``heartbeat_period`` equal to ``PEER_HEARTBEAT_PERIOD`` and
        an unskewed clock, the heartbeat sweep and the peer heartbeat
        share one timer (:meth:`_tick`); otherwise each has its own.
        """
        config = self.config
        self.monitor.watch(PEER, config.peer_heartbeat_timeout)
        self._cancel_timers()
        if config.heartbeat_period == PEER_HEARTBEAT_PERIOD and self._system.clock_scale == 1.0:
            self.monitor.start(timer=False)
            self._hb_timer = self.kernel.schedule(config.heartbeat_period, self._tick)
            if self.alive:
                self._beat()
        else:
            self.monitor.start()
            self._peer_heartbeat_loop()
        self._status_report_loop()
        if self.policy is not None:
            self.policy.start()
        self.negotiator.begin()
        self.trace.emit("engine", self.node_name, "engine-started")

    @property
    def role(self) -> Role:
        """Current role of this node."""
        return self.negotiator.role

    @property
    def application(self) -> Optional[OfttApplication]:
        """The first managed application (convenience for single-app pairs)."""
        for app in self.applications.values():
            return app
        return None

    def _on_process_exit(self, _process: NTProcess) -> None:
        # §4 demo (d): middleware failure.  Everything engine-driven stops.
        self.alive = False
        self._cancel_timers()
        self.monitor.stop()
        self.monitor.clear()
        if self.policy is not None:
            self.policy.stop()
        # Sorted so teardown side effects (timer cancels, traces) fire in
        # a name-stable order regardless of watchdog creation history.
        for name in sorted(self.watchdogs):
            watchdog = self.watchdogs[name]
            if not watchdog.deleted:
                watchdog.delete()
        self.trace.emit("engine", self.node_name, "engine-dead")

    def _cancel_timers(self) -> None:
        if self._hb_timer is not None:
            self.kernel.cancel(self._hb_timer)
            self._hb_timer = None
        if self._report_timer is not None:
            self.kernel.cancel(self._report_timer)
            self._report_timer = None

    def shutdown(self) -> None:
        """Orderly engine shutdown (stops the apps too)."""
        self._stop_all_applications()
        if self.process.alive:
            self.process.exit(0)

    def _stop_all_applications(self) -> None:
        # Registration order is the fan-out contract here: applications
        # is only ever built once in __init__ from the caller's list, so
        # iteration order is deterministic across runs and restores.
        for app in self.applications.values():
            if app.running:
                record = self.components.get(app.name)
                if record is not None:
                    record.status = ComponentStatus.STOPPED
                self.monitor.pause(app.name)
                app.stop()

    # -- component registration (called by FTIMs) ------------------------------------

    def register_component(
        self,
        name: str,
        kind: ComponentKind,
        process: NTProcess,
        rule: Optional[RecoveryRule] = None,
    ) -> None:
        """Start monitoring a component linked with an FTIM.

        Its death is caught two ways: by the heartbeat timeout, and at
        once by a process-exit hook (a hung process does not exit, so
        only the heartbeat catches a hang).
        """
        if not self.alive:
            raise OfttError(f"engine on {self.node_name} is not running")
        record = _Component(name, kind, process)
        self.components[name] = record
        self.monitor.watch(name, self.config.heartbeat_timeout)
        if rule is not None:
            self.recovery.set_rule(name, rule)
        record.exit_hook = lambda _p, n=name: self._on_component_exit(n)
        process.on_exit.append(record.exit_hook)
        self.trace.emit("engine", self.node_name, "component-registered", target=name, kind=kind.value)

    def unregister_component(self, name: str) -> None:
        """Stop monitoring a component and release everything watching it.

        The inverse of :meth:`register_component`: removes the heartbeat
        watch, forgets recovery history, and unhooks the process-exit
        callback so a later exit of the (now unmanaged) process does not
        trigger recovery.  Idempotent; unknown names are a no-op.
        """
        record = self.components.pop(name, None)
        if record is None:
            return
        self.monitor.unwatch(name)
        self.recovery.clear(name)
        if record.exit_hook is not None and record.exit_hook in record.process.on_exit:
            record.process.on_exit.remove(record.exit_hook)
        record.exit_hook = None
        self.trace.emit("engine", self.node_name, "component-unregistered", target=name)

    def heartbeat_from(self, name: str) -> None:
        """Receive a local component heartbeat (direct same-node call)."""
        if not self.alive:
            return
        self.monitor.beat(name)

    def set_recovery_rule(self, component: str, rule: RecoveryRule) -> None:
        """Dynamic recovery-rule change (§2.2.1 run-time option).

        The rule lands in the shared deployment config (see
        :meth:`RecoveryManager.set_rule`), so the engine, its recovery
        manager and every other holder of the config stay in agreement.
        """
        self.recovery.set_rule(component, rule)

    # -- watchdog management (OFTTWatchdog*) ---------------------------------------------

    def watchdog_create(self, name: str, owner: str) -> WatchdogTimer:
        """Create a reliable watchdog owned by component *owner*."""
        if name in self.watchdogs and not self.watchdogs[name].deleted:
            raise WatchdogError(f"watchdog {name} already exists")
        watchdog = WatchdogTimer(self.kernel, name, owner, self._on_watchdog_expired)
        self.watchdogs[name] = watchdog
        return watchdog

    def _on_watchdog_expired(self, watchdog: WatchdogTimer) -> None:
        if not self.alive:
            return
        self.trace.emit("engine", self.node_name, "watchdog-expired", watchdog=watchdog.name, owner=watchdog.owner)
        self._handle_component_failure(watchdog.owner, f"watchdog {watchdog.name} expired")

    # -- checkpoints ----------------------------------------------------------------------

    def submit_checkpoint(self, checkpoint: Checkpoint) -> None:
        """FTIM hands over a fresh checkpoint: keep locally, mirror to peer."""
        if not self.alive:
            return
        self.checkpoint_sizes.append(checkpoint.size_bytes())
        self.local_store.store(checkpoint)
        self.strategy.replicate(checkpoint)
        for callback in list(self.on_checkpoint_submit):
            callback(self, checkpoint)

    def latest_local_image(self, app_name: str) -> Optional[Dict[str, Any]]:
        """Image for a local restart (None if never checkpointed)."""
        checkpoint = self.local_store.latest(app_name)
        return checkpoint.image if checkpoint is not None else None

    def latest_peer_image(self, app_name: str) -> Optional[Dict[str, Any]]:
        """Image for a failover takeover (None if never received)."""
        checkpoint = self.peer_store.latest(app_name)
        return checkpoint.image if checkpoint is not None else None

    # -- failure handling ----------------------------------------------------------------

    def _on_heartbeat_failure(self, component: str, silence: float) -> None:
        if not self.alive:
            return
        if component == PEER:
            self.on_peer_lost(silence)
        else:
            self.trace.emit(
                "engine", self.node_name, "heartbeat-timeout", target=component, silence=round(silence, 3)
            )
            self._handle_component_failure(component, f"heartbeat silence {silence:.0f}ms")

    def _on_component_exit(self, component: str) -> None:
        if not self.alive:
            return
        record = self.components.get(component)
        if record is not None and record.status in (ComponentStatus.RECOVERING, ComponentStatus.STOPPED):
            return  # deliberate stop or restart in progress
        self.trace.emit("engine", self.node_name, "component-exit", target=component)
        self._handle_component_failure(component, "process exit")

    def _handle_component_failure(self, component: str, reason: str) -> None:
        record = self.components.get(component)
        if record is None:
            return
        if record.status in (ComponentStatus.FAILED, ComponentStatus.RECOVERING, ComponentStatus.STOPPED):
            return  # already being handled
        record.status = ComponentStatus.FAILED
        self._report_now(component)
        if self.policy is not None:
            decision = self.policy.decide(component, reason)
        else:
            decision = self.recovery.on_failure(component, reason)
        self.trace.emit(
            "engine",
            self.node_name,
            "recovery-decision",
            target=component,
            action=decision.action.value,
            reason=decision.reason,
        )
        if decision.action is RecoveryAction.LOCAL_RESTART:
            record.status = ComponentStatus.RECOVERING
            self.monitor.pause(component)
            self.kernel.schedule(decision.delay, self._local_restart, component)
        elif decision.action is RecoveryAction.FAILOVER:
            self._initiate_switchover(f"{component}: {decision.reason}")
        elif decision.action is RecoveryAction.REINSTALL:
            self._initiate_reinstall(component, decision.reason)
        else:
            self._report_now(component)

    def _local_restart(self, component: str) -> None:
        app = self.applications.get(component)
        if not self.alive or app is None:
            return
        if self.role is not PRIMARY:
            return  # role changed while the restart was queued
        self.local_restart_count += 1
        image = self.latest_local_image(component)
        self.trace.emit(
            "engine", self.node_name, "local-restart", target=component, with_checkpoint=image is not None
        )
        app.stop()
        app.launch(image)
        record = self.components.get(component)
        if record is not None:
            record.status = ComponentStatus.RUNNING
        self.monitor.resume(component)
        self._report_now(component)

    # -- switchover (deliberate handoff) ----------------------------------------------------

    def request_switchover(self, reason: str) -> None:
        """OFTTDistress entry point: hand control to the peer if possible."""
        if not self.alive:
            return
        if self.role is not PRIMARY:
            raise OfttError(f"{self.node_name}: switchover requested while {self.role.value}")
        self._initiate_switchover(reason)

    def _initiate_switchover(self, reason: str) -> None:
        if self.role is not PRIMARY:
            return
        if not self.peer_present:
            # "if application on the peer node is functional" — it is not;
            # the best we can do is keep trying locally.
            self.trace.emit("engine", self.node_name, "switchover-impossible", reason=reason)
            for app in self.applications.values():
                if not app.running:
                    self.kernel.schedule(self.config.default_rule.restart_delay, self._forced_local_restart, app.name)
            return
        self.switchover_count += 1
        takeover_id = next(self._takeover_ids)
        self.trace.emit("engine", self.node_name, "switchover-initiated", reason=reason, takeover_id=takeover_id)
        # Stop the local copies FIRST (single-primary safety), then hand off.
        self._stop_all_applications()
        self.negotiator.demote()
        self._send_to_peer({"kind": "takeover", "takeover_id": takeover_id, "reason": reason})
        # If the peer never acks, our peer-loss detection will promote us
        # right back — the self-healing loop closes itself.

    # Same-tick with _local_restart is benign: both guard on app.running,
    # so the loser of the seq tiebreak is a no-op.
    def _forced_local_restart(self, component: str) -> None:  # oftt-lint: ok[race-write-write]
        app = self.applications.get(component)
        if not self.alive or app is None or self.role is not PRIMARY:
            return
        if app.running:
            return
        self.local_restart_count += 1
        app.launch(self.latest_local_image(component))
        record = self.components.get(component)
        if record is not None:
            record.status = ComponentStatus.RUNNING
        self.monitor.resume(component)

    # -- reinstall (escalation ladder stage 3) -------------------------------------------------

    def _initiate_reinstall(self, component: str, reason: str) -> None:
        """Last rung of the adaptive ladder: rebuild this node's stack.

        Reached only when local restarts are exhausted *and* a
        switchover already failed for want of a peer — at that point the
        middleware itself is the remaining suspect (the paper's manual
        remedy: reinstall OFTT on the node).  The deployment wires
        :attr:`reinstall_hook`; without one we degrade to the switchover
        path, which retries local restarts when the peer is absent.
        """
        self.trace.emit("engine", self.node_name, "reinstall-initiated", target=component, reason=reason)
        if self.reinstall_hook is None:
            self._initiate_switchover(reason)
            return
        # Deferred one event: the hook tears this engine down, which
        # must not happen inside our own failure-handling frame.
        self.kernel.schedule(0.0, self.reinstall_hook)

    # -- runtime strategy switching ------------------------------------------------------------

    def switch_strategy(self, name: str, reason: str) -> None:
        """Move the live pair onto replication strategy *name*.

        Safe-handoff protocol, all inside one simulator event so no
        checkpoint or engine message can interleave with a half-switched
        state: (1) quiesce — nothing is in flight once we are here;
        (2) atomic swap of the strategy object; (3) re-base every
        checkpointing FTIM via ``force_full_capture`` so no post-switch
        delta references a base the peer merged under the old rules;
        (4) resume — the FTIMs' next periodic capture uses the new
        policy.  The backup follows the primary's choice via the
        ``strategy`` field on heartbeats.
        """
        if not self.alive or name == self.strategy_name:
            return
        old_name = self.strategy_name
        new_strategy = create_strategy(name, self)
        self.strategy = new_strategy
        self.strategy_name = name
        self.strategy_switch_count += 1
        for app in self.applications.values():
            ftim = getattr(getattr(app, "api", None), "ftim", None)
            if ftim is not None and ftim.takes_checkpoints:
                ftim.apply_checkpoint_policy(new_strategy)
        self.trace.emit(
            "engine", self.node_name, "strategy-switched", strategy=name, previous=old_name, reason=reason
        )
        for callback in list(self.on_strategy_switch):
            callback(self, old_name, name, reason)

    # -- peer handling -----------------------------------------------------------------------

    def on_peer_lost(self, silence: float) -> None:
        """The peer engine's heartbeat went silent: a backup takes over, a primary runs degraded."""
        self.peer_present = False
        role = self.role
        self.trace.emit("engine", self.node_name, "peer-lost", silence=round(silence, 3), role=role.value)
        if role is BACKUP:
            self._promote("peer heartbeat loss")
        elif role is PRIMARY:
            self.degraded = True
            self._report_now(PEER)

    def _promote(self, reason: str) -> None:
        self.negotiator.promote()
        self.trace.emit("engine", self.node_name, "takeover", reason=reason)
        self._start_application_as_primary()
        self._broadcast_role_change()

    def _start_application_as_primary(self) -> None:
        if not self.alive:
            # Negotiator timers (startup wait/retry) outlive the engine
            # process; a decision landing after death must not launch.
            return
        # Same registration-order contract as _stop_all_applications:
        # launch order matters for trace comparison, and __init__ fixed it.
        for name, app in self.applications.items():
            if app.running:
                continue
            # A predecessor engine's copy may have orphaned a process with
            # this name (a hung app never fail-stops itself because its
            # FTIM thread is suspended too).  The service restart reaps it
            # before launching ours, like the NT service manager would.
            stale = self.context.system.find_process(name)
            if stale is not None and stale.alive and (app.process is None or stale is not app.process):
                self.trace.emit("engine", self.node_name, "stale-process-reaped", target=name)
                stale.kill(code=-4)
            image = self.latest_peer_image(name)
            if image is None:
                # Maybe we were primary before and have local history.
                image = self.latest_local_image(name)
            app.launch(image)
            record = self.components.get(name)
            if record is not None:
                record.status = ComponentStatus.RUNNING
            self.monitor.resume(name)
            self.recovery.clear(name)

    def _on_role_decided(self, role: Role) -> None:
        if not self.alive:
            return
        if role is PRIMARY:
            self._start_application_as_primary()
        self._broadcast_role_change()
        self._report_now("oftt-engine")

    def _on_startup_shutdown(self) -> None:
        # The original §3.2 behaviour: give up and power down the stack.
        self.trace.emit("engine", self.node_name, "startup-giving-up")
        self.shutdown()

    def _on_demoted(self) -> None:
        # Lost a dual-primary resolution: stop our copies immediately.
        self._stop_all_applications()
        self._broadcast_role_change()

    # -- wire protocol ------------------------------------------------------------------------

    def _send_to_peer(self, payload: Dict[str, Any]) -> None:
        if self.alive:
            self._net_send(self.node_name, self.peer_node, ENGINE_PORT, payload, 128)

    def scaled(self, period: float) -> float:
        """*period* as measured by this machine's (possibly skewed) clock.

        Periodic engine timers go through this so a ``ClockSkew`` fault
        on the host stretches heartbeat/report cadence the way a drifting
        hardware clock would.  Re-read every iteration, so skew injected
        mid-run takes effect on the next tick.
        """
        return period * self._system.clock_scale

    def _tick(self) -> None:
        """One heartbeat period on one timer: the sweep, then the peer heartbeat.

        The two timers this replaces fired at the same instant, the
        sweep's directly before the heartbeat loop's (see :meth:`start`).
        The tick re-arms where the sweep re-armed itself, before the
        heartbeat is sent.  Once a ``ClockSkew`` moves this machine's
        clock scale off 1, the sweep goes back to the monitor's own
        timer and the heartbeat to :meth:`_peer_heartbeat_loop`, for
        good: the scaled heartbeat period leaves the sweep's grid.
        """
        if not self.alive:
            return
        self.monitor.sweep()
        if self._system.clock_scale == 1.0:
            self._hb_timer = self.kernel.schedule(self.config.heartbeat_period, self._tick)
            if self.alive:
                self._beat()
        else:
            self.monitor.start_timer()
            self._peer_heartbeat_loop()

    # The tick hands the heartbeat timer to this loop once, and does not
    # re-arm itself then; the loop never arms the tick.  So _hb_timer's
    # two writers never both have a live call.
    def _peer_heartbeat_loop(self) -> None:  # oftt-lint: ok[race-write-write]
        if not self.alive:
            return
        self._beat()
        self._hb_timer = self.kernel.schedule(
            self.scaled(PEER_HEARTBEAT_PERIOD), self._peer_heartbeat_loop
        )

    def _beat(self) -> None:
        """Send the peer heartbeat, then run the strategy's heartbeat tick."""
        negotiator = self.negotiator
        payload = {
            "kind": "hb",
            "node": self.node_name,
            # The member's own attribute, not the Enum ``value``
            # descriptor (see repro.core.roles).
            "role": negotiator.role._value_,
            "incarnation": negotiator.incarnation,
        }
        if self.policy is not None:
            # Lets the backup follow a runtime strategy switch.  Only
            # added with the policy on, keeping default wire bytes (and
            # thus traces) identical to the static build.
            payload["strategy"] = self.strategy_name
        self._net_send(self.node_name, self.peer_node, ENGINE_PORT, payload, 128)
        self.strategy.on_heartbeat_tick()

    def _on_engine_message(self, message) -> None:
        if not self.alive:
            return
        payload = message.payload
        kind = payload.get("kind")
        if kind == "hb":
            self._on_peer_heartbeat(payload)
        elif kind == "role-announce":
            self.negotiator.on_peer_announce(payload)
        elif kind == "ckpt":
            self.on_peer_checkpoint(payload)
        elif kind == "ckpt-ack":
            self._on_checkpoint_ack(payload)
        elif kind == "ckpt-resync":
            self.on_resync_request(payload)
        elif kind == "takeover":
            self.on_takeover_request(payload)

    def _on_peer_heartbeat(self, payload: Dict[str, Any]) -> None:
        was_present = self.peer_present
        self.peer_present = True
        self.monitor.beat(PEER)
        if self.degraded:
            self.degraded = False
            self.trace.emit("engine", self.node_name, "peer-returned")
        peer_role = role_of(payload["role"])
        if not was_present or peer_role is PRIMARY:
            # Role-carrying heartbeats double as announcements.
            self.negotiator.on_peer_announce(payload)
        peer_strategy = payload.get("strategy")
        if (
            self.policy is not None
            and peer_strategy
            and peer_role is PRIMARY
            and self.role is not PRIMARY
            and peer_strategy != self.strategy_name
        ):
            self.switch_strategy(peer_strategy, "follow primary")
        self._check_dual_backup(peer_role)

    def _check_dual_backup(self, peer_role: Role) -> None:
        # A lost takeover message (or crossed demotions) can leave both
        # nodes BACKUP with nobody running the application.  If the
        # condition persists across several peer heartbeats, the
        # deterministic tie-break winner promotes itself.
        if self.role is BACKUP and peer_role is BACKUP and self.negotiator.decided_at is not None:
            self._dual_backup_streak += 1
            if self._dual_backup_streak >= 3 and self.negotiator._wins_tiebreak():
                self._dual_backup_streak = 0
                self.trace.emit("engine", self.node_name, "dual-backup-resolved")
                self._promote("dual-backup resolution")
        else:
            self._dual_backup_streak = 0

    def on_peer_checkpoint(self, payload: Dict[str, Any]) -> None:
        """A ``ckpt`` wire message arrived from the peer: mirror it and ack."""
        self.checkpoints_received += 1
        checkpoint = Checkpoint.from_wire(payload["data"])
        peer_store = self.peer_store
        if checkpoint.incremental:
            base_sequence = peer_store.latest_sequence(checkpoint.app_name)
            if base_sequence == 0 or checkpoint.sequence > base_sequence + 1:
                # A delta we cannot soundly merge: this store has no base
                # (fresh after a node reinstall) or intermediate deltas
                # were lost in transit.  Merging onto a stale base would
                # silently drop the variables only the missing deltas
                # carried, so reject it and ask the sender for a full
                # image instead.  (Sequences at or below the base are the
                # ordinary stale-duplicate case store() already rejects.)
                self._send_to_peer({"kind": "ckpt-resync", "app": checkpoint.app_name})
                return
        stored = peer_store.store(checkpoint)
        if stored:
            self._send_to_peer({"kind": "ckpt-ack", "app": checkpoint.app_name, "sequence": checkpoint.sequence})
            for callback in list(self.on_checkpoint_stored):
                callback(self, checkpoint)

    def on_resync_request(self, payload: Dict[str, Any]) -> None:
        """The peer cannot merge our incremental stream (``ckpt-resync``).

        Resets the named application's FTIM so its next capture is a
        full image, re-basing the peer's incremental chain.
        """
        app = self.applications.get(payload.get("app", ""))
        ftim = getattr(getattr(app, "api", None), "ftim", None)
        if ftim is not None:
            ftim.force_full_capture()

    def _on_checkpoint_ack(self, payload: Dict[str, Any]) -> None:
        self.acked_sequence = max(self.acked_sequence, payload["sequence"])
        still_waiting = []
        # Only the durable saves still awaiting an ack: each ack drops the
        # ones it covers, and give_up() drops the timed-out ones.
        for sequence, event in self._ack_waiters:  # oftt-lint: ok[hot-linear-scan]
            if sequence <= self.acked_sequence:
                if not event.fired:
                    event.succeed(True)
            else:
                still_waiting.append((sequence, event))
        self._ack_waiters = still_waiting

    def ack_event_for(self, sequence: int, timeout: Optional[float] = None):
        """A waitable that fires True once the peer acks *sequence*.

        Fires False after *timeout* (default: ``CHECKPOINT_ACK_TIMEOUT``)
        — e.g. when no backup is present.  Used by the
        durable-save API so applications can make state changes
        *provably* replicated before proceeding.
        """
        from repro.simnet.events import Event

        event = Event(name=f"ckpt-ack:{sequence}")
        if sequence <= self.acked_sequence:
            event.succeed(True)
            return event
        self._ack_waiters.append((sequence, event))
        deadline = timeout if timeout is not None else CHECKPOINT_ACK_TIMEOUT

        def give_up() -> None:
            if not event.fired:
                self._ack_waiters = [(s, e) for s, e in self._ack_waiters if e is not event]
                event.succeed(False)

        self.kernel.schedule(deadline, give_up)
        return event

    def on_takeover_request(self, payload: Dict[str, Any]) -> None:
        """The peer asked us to take over (deliberate switchover)."""
        reason = payload.get("reason", "")
        self.trace.emit("engine", self.node_name, "takeover-request", reason=reason)
        if self.role is BACKUP:
            self._promote(f"takeover request: {reason}")
        elif self.role is PRIMARY:
            # Already primary (e.g. raced with peer-loss promotion): fine.
            self._broadcast_role_change()

    # -- status reporting ------------------------------------------------------------------------

    def _status_report_loop(self) -> None:
        if not self.alive:
            return
        # Reports go to the monitor nodes only; with none, building the
        # table is waste (GetStatusTable still builds it on request).
        if self.monitor_nodes:
            for report in self.status_reports():
                self._send_report(report)
        # Re-broadcast the role periodically as well: diverter clients
        # that missed a role-change notice (boot races, lossy links)
        # relearn the primary within one report period.
        if self.role is PRIMARY:
            self._broadcast_role_change()
        self._report_timer = self.kernel.schedule(
            self.scaled(STATUS_REPORT_PERIOD), self._status_report_loop
        )

    def status_reports(self) -> List[StatusReport]:
        """Current status of everything this engine monitors.

        Reports are built positionally, in field order: node, component,
        kind, status, role, time, detail.
        """
        node = self.node_name
        role = self.negotiator.role._value_
        now = self.kernel.now
        reports = [
            StatusReport(
                node,
                "oftt-engine",
                OFTT_ENGINE,
                RUNNING if self.alive else FAILED,
                role,
                now,
                {"incarnation": self.negotiator.incarnation, "degraded": self.degraded},
            ),
            StatusReport(
                node,
                "peer-link",
                HARDWARE,
                RUNNING if self.peer_present else FAILED,
                "",
                now,
                {"peer": self.peer_node},
            ),
        ]
        components = self.components
        for component in sorted(components):
            record = components[component]
            reports.append(StatusReport(node, component, record.kind, record.status, role, now))
        return reports

    def _report_now(self, component: str) -> None:
        if not self.monitor_nodes:
            return
        for report in self.status_reports():
            if report.component == component:
                self._send_report(report)

    def _send_report(self, report: StatusReport) -> None:
        for monitor_node in self.monitor_nodes:
            self._net_send(self.node_name, monitor_node, STATUS_PORT, report.as_wire(), 96)

    def _broadcast_role_change(self) -> None:
        notice = {
            "kind": "role-change",
            "node": self.node_name,
            "peer": self.peer_node,
            "role": self.negotiator.role._value_,
            "incarnation": self.negotiator.incarnation,
            "time": self.kernel.now,
        }
        for subscriber in self.subscriber_nodes:
            self._net_send(self.node_name, subscriber, DIVERTER_PORT, notice, 64)

    # -- COM surface --------------------------------------------------------------------------------

    def GetRole(self) -> str:
        """IOFTTEngine::GetRole."""
        return self.role.value

    def GetStatusTable(self) -> List[dict]:
        """IOFTTEngine::GetStatusTable."""
        return [report.as_wire() for report in self.status_reports()]

    def RequestSwitchover(self, reason: str) -> None:
        """IOFTTEngine::RequestSwitchover (remote-callable distress)."""
        self.request_switchover(reason)

    def GetCheckpointInfo(self) -> dict:
        """IOFTTEngine::GetCheckpointInfo."""
        app = self.application.name if self.application is not None else ""
        return {
            "acked_sequence": self.acked_sequence,
            "local_latest": self.local_store.latest_sequence(app) if app else 0,
            "peer_latest": self.peer_store.latest_sequence(app) if app else 0,
        }

    def __repr__(self) -> str:
        return f"OfttEngine({self.node_name}, {self.role.value}, alive={self.alive})"
