"""Pluggable replication strategies (ROADMAP item 3).

The paper hard-codes one replication mode: the cold-passive
primary/backup pair (§2.2.1 role negotiation, §2.2.2 periodic
checkpoints, takeover on peer loss).  :class:`ReplicationStrategy`
factors that behaviour out of :class:`~repro.core.engine.OfttEngine`
into an overridable policy object so the same engine, FTIMs and
diverter can run alternative modes.  Three built-ins:

* :class:`ColdPassiveStrategy` — the paper's behaviour, extracted
  verbatim.  Selecting it (the default) is byte-identical to the
  pre-strategy engine on every scenario; the replay gate proves it.
* :class:`LeaderFollowerStrategy` — LLFT-style (arxiv 1004.1864):
  instead of full checkpoints every ``checkpoint_period``, the leader
  streams *incremental state updates* every ``LF_UPDATE_PERIOD`` (one
  delta per workload message at matching rates).  The follower's
  mirrored store merges each delta onto its latest image, so a failover
  promotes from a near-fresh image with no checkpoint gap to replay.
* :class:`LogReplayDRStrategy` — message-logging + checkpointing
  disaster recovery (arxiv 0911.3092): cold-passive behaviour within
  the pair, plus the primary mirrors every checkpoint to a remote
  disaster-recovery site (``config.dr_node``) over MSMQ
  store-and-forward, and both engines heartbeat the site.  Together
  with the diverter's sender-side message log (see
  :class:`~repro.core.diverter.DiverterClient` ``mirror``), the site's
  :class:`~repro.core.drsite.DRSite` can reconstruct the application
  state from last-checkpoint + log replay after *total pair loss* —
  the one failure the paper's pair cannot survive.

The strategy is selected by ``OfttConfig.replication_strategy`` and
instantiated per engine in ``OfttEngine.__init__``; the lifecycle hooks
it owns are documented on the base class and in DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.checkpoint import Checkpoint
from repro.core.drsite import DR_PORT, DR_QUEUE
from repro.core.roles import Role
from repro.errors import OfttError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import OfttEngine
    from repro.core.recovery import RecoveryDecision

#: Monitor name used for the peer engine's heartbeat watch.  Lives here
#: (not in engine.py) so strategies can reference it without an import
#: cycle; the engine module re-exports it for existing importers.
PEER = "peer-engine"

#: Leader-follower: period of the incremental state-update stream (ms);
#: it overrides every FTIM's checkpoint period under that strategy.
LF_UPDATE_PERIOD = 100.0


class ReplicationStrategy:
    """Policy object owning an engine's replication behaviour.

    One instance per engine (strategies may keep per-node state).  The
    engine calls :meth:`attach` once during construction, then drives
    the hooks below; everything not overridden inherits the cold-passive
    defaults documented per method.
    """

    name = "replication"

    def __init__(self) -> None:
        self.engine: Optional["OfttEngine"] = None

    def attach(self, engine: "OfttEngine") -> None:
        """Bind to the owning engine (called once from ``__init__``)."""
        self.engine = engine

    # -- checkpoint policy ---------------------------------------------------------

    def checkpoint_policy(self, app_name: str, requested: Optional[float]) -> Tuple[float, bool]:
        """``(period, incremental)`` for a new FTIM of *app_name*.

        *requested* is the application's explicit ``checkpoint_period``
        override (None = use the configured default).  The base policy
        is the paper's: the requested or configured period, full images.
        """
        period = requested if requested is not None else self.engine.config.checkpoint_period
        return period, False

    # -- replication stream --------------------------------------------------------

    def replicate(self, checkpoint: Checkpoint) -> None:
        """Ship a locally submitted checkpoint to the replica(s)."""
        raise NotImplementedError

    def on_peer_checkpoint(self, payload: Dict[str, Any]) -> None:
        """A ``ckpt`` wire message arrived from the peer."""
        raise NotImplementedError

    def on_resync_request(self, payload: Dict[str, Any]) -> None:
        """The peer cannot merge our incremental stream (``ckpt-resync``)."""

    # -- role lifecycle ------------------------------------------------------------

    def on_peer_lost(self, silence: float) -> None:
        """The peer engine's heartbeat went silent."""
        raise NotImplementedError

    def on_takeover_request(self, payload: Dict[str, Any]) -> None:
        """The peer asked us to take over (deliberate switchover)."""
        raise NotImplementedError

    def on_failover_escalation(self, component: str, decision: "RecoveryDecision") -> None:
        """The recovery manager escalated a component failure to failover."""
        raise NotImplementedError

    def on_heartbeat_tick(self) -> None:
        """Called every peer-heartbeat period (extra liveness traffic)."""


class ColdPassiveStrategy(ReplicationStrategy):
    """The paper's primary/backup pair, extracted from the engine.

    Periodic full checkpoints mirrored to the peer; the backup promotes
    on peer heartbeat loss or an explicit takeover request; component
    failures past the local-restart budget switch over to the peer.
    """

    name = "cold-passive"

    def replicate(self, checkpoint: Checkpoint) -> None:
        self.engine._send_to_peer({"kind": "ckpt", "data": checkpoint.as_wire()})

    def on_peer_checkpoint(self, payload: Dict[str, Any]) -> None:
        engine = self.engine
        checkpoint = Checkpoint.from_wire(payload["data"])
        if checkpoint.incremental:
            base_sequence = engine.peer_store.latest_sequence(checkpoint.app_name)
            if base_sequence == 0 or checkpoint.sequence > base_sequence + 1:
                # A delta we cannot soundly merge: this store has no base
                # (fresh after a node reinstall) or intermediate deltas
                # were lost in transit.  Merging onto a stale base would
                # silently drop the variables only the missing deltas
                # carried, so reject it and ask the sender for a full
                # image instead.  (Sequences at or below the base are the
                # ordinary stale-duplicate case store() already rejects.)
                engine.peer_store.rejected_count += 1
                engine._stats["checkpoints_rx"] += 1
                engine._send_to_peer({"kind": "ckpt-resync", "app": checkpoint.app_name})
                return
        stored = engine.peer_store.store(checkpoint)
        engine._stats["checkpoints_rx"] += 1
        if stored:
            engine._send_to_peer(
                {"kind": "ckpt-ack", "app": checkpoint.app_name, "sequence": checkpoint.sequence}
            )
            for callback in list(engine.on_checkpoint_stored):
                callback(engine, checkpoint)

    def on_resync_request(self, payload: Dict[str, Any]) -> None:
        # Reset the named application's FTIM so its next capture is a
        # full image, re-basing the peer's incremental chain.
        app = self.engine.applications.get(payload.get("app", ""))
        ftim = getattr(getattr(app, "api", None), "ftim", None)
        if ftim is not None:
            ftim.force_full_capture()

    def on_peer_lost(self, silence: float) -> None:
        engine = self.engine
        if engine.role is Role.BACKUP:
            engine._promote("peer heartbeat loss")
        elif engine.role is Role.PRIMARY:
            engine.degraded = True
            engine._report_now(PEER)

    def on_takeover_request(self, payload: Dict[str, Any]) -> None:
        engine = self.engine
        if engine.role is Role.BACKUP:
            engine._promote(f"takeover request: {payload.get('reason', '')}")
        elif engine.role is Role.PRIMARY:
            # Already primary (e.g. raced with peer-loss promotion): fine.
            engine._broadcast_role_change()

    def on_failover_escalation(self, component: str, decision: "RecoveryDecision") -> None:
        self.engine._initiate_switchover(f"{component}: {decision.reason}")


class LeaderFollowerStrategy(ColdPassiveStrategy):
    """LLFT-style leader-follower replication (arxiv 1004.1864).

    Role lifecycle and takeover are inherited from cold-passive; what
    changes is the replication stream.  The checkpoint policy forces
    every FTIM onto ``LF_UPDATE_PERIOD`` with *incremental*
    capture, so the leader ships one small state delta per update period
    (per workload message, at matching rates) instead of a full image
    every ``checkpoint_period``.  The follower's store merges each delta
    onto its latest image at insertion, so its newest mirrored image is
    always a full, near-fresh replica — promotion restarts the
    application without the checkpoint gap a cold-passive takeover
    replays into.
    """

    name = "leader-follower"

    def __init__(self) -> None:
        super().__init__()
        self.updates_replicated = 0

    def checkpoint_policy(self, app_name: str, requested: Optional[float]) -> Tuple[float, bool]:
        return LF_UPDATE_PERIOD, True

    def replicate(self, checkpoint: Checkpoint) -> None:
        self.updates_replicated += 1
        super().replicate(checkpoint)


class LogReplayDRStrategy(ColdPassiveStrategy):
    """Message-logging + checkpointing disaster recovery (arxiv 0911.3092).

    Within the pair this is cold-passive.  Additionally, every submitted
    checkpoint is mirrored over MSMQ store-and-forward to the remote
    ``config.dr_node`` (persistent, retried — the site may be slow or
    briefly unreachable), and each peer-heartbeat tick also pings the DR
    site so it can tell "pair alive" from "total pair loss".  The
    receiving :class:`~repro.core.drsite.DRSite` journals checkpoint and
    message records and reconstructs last-checkpoint + log-replay state
    when the pair goes silent past ``DR_ACTIVATION_TIMEOUT``.
    """

    name = "log-replay-dr"

    def replicate(self, checkpoint: Checkpoint) -> None:
        super().replicate(checkpoint)
        engine = self.engine
        if engine.config.dr_node:
            engine.context.qmgr.send(
                engine.config.dr_node,
                DR_QUEUE,
                {"kind": "ckpt", "data": checkpoint.as_wire()},
                persistent=True,
                label="dr-ckpt",
            )

    def on_heartbeat_tick(self) -> None:
        engine = self.engine
        if engine.config.dr_node:
            engine.context.system.node.send(
                engine.config.dr_node,
                DR_PORT,
                {"kind": "hb", "node": engine.node_name, "role": engine.role.value},
                size=32,
            )


#: name -> class; keep in sync with ``config.REPLICATION_STRATEGIES``
#: (pinned by tests/core/test_strategy.py).
STRATEGIES: Dict[str, type] = {
    ColdPassiveStrategy.name: ColdPassiveStrategy,
    LeaderFollowerStrategy.name: LeaderFollowerStrategy,
    LogReplayDRStrategy.name: LogReplayDRStrategy,
}


def create_strategy(name: str) -> ReplicationStrategy:
    """Instantiate the strategy registered under *name*."""
    cls = STRATEGIES.get(name)
    if cls is None:
        raise OfttError(f"unknown replication strategy {name!r}; available: {sorted(STRATEGIES)}")
    return cls()
