"""Pluggable replication strategies: the paper's cold-passive pair and two more.

The paper hard-codes one replication mode: the cold-passive
primary/backup pair (§2.2.1 role negotiation, §2.2.2 periodic
checkpoints, takeover on peer loss).  The strategies share all of that
— role lifecycle, takeover, the peer's checkpoint store — which the
:class:`~repro.core.engine.OfttEngine` owns.  They differ in three
hooks only: the checkpoint policy, where a checkpoint is shipped, and
a side channel on the heartbeat tick.  :class:`ColdPassiveStrategy`
defines the three; the others override what they change.  Three
built-ins:

* :class:`ColdPassiveStrategy` — the paper's behaviour: periodic full
  images mirrored to the peer, nothing extra on the heartbeat.
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
instantiated per engine in ``OfttEngine.__init__`` (and again on a
runtime switch, :meth:`OfttEngine.switch_strategy`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.checkpoint import Checkpoint
from repro.core.drsite import DR_PORT, DR_QUEUE
from repro.errors import OfttError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import OfttEngine

#: Monitor name used for the peer engine's heartbeat watch.  Lives here
#: (not in engine.py) so the policy module can reference it without an
#: import cycle; the engine module re-exports it for existing importers.
PEER = "peer-engine"

#: Leader-follower: period of the incremental state-update stream (ms);
#: it overrides every FTIM's checkpoint period under that strategy.
LF_UPDATE_PERIOD = 100.0


class ColdPassiveStrategy:
    """The paper's primary/backup pair: full checkpoints to the peer.

    One instance per engine, bound at construction.  The three methods
    are the hooks strategies differ in; the subclasses below override
    them.
    """

    name = "cold-passive"

    def __init__(self, engine: "OfttEngine") -> None:
        self.engine = engine

    def checkpoint_policy(self, app_name: str, requested: Optional[float]) -> Tuple[float, bool]:
        """``(period, incremental)`` for a new FTIM of *app_name*.

        *requested* is the application's explicit ``checkpoint_period``
        override (None = use the configured default).  The paper's
        policy: the requested or configured period, full images.
        """
        period = requested if requested is not None else self.engine.config.checkpoint_period
        return period, False

    def replicate(self, checkpoint: Checkpoint) -> None:
        """Ship a locally submitted checkpoint to the replica(s)."""
        self.engine._send_to_peer({"kind": "ckpt", "data": checkpoint.as_wire()})

    def on_heartbeat_tick(self) -> None:
        """Called every peer-heartbeat period (extra liveness traffic)."""


class LeaderFollowerStrategy(ColdPassiveStrategy):
    """LLFT-style leader-follower replication (arxiv 1004.1864).

    Role lifecycle, takeover and the replication stream are
    cold-passive's; what changes is the checkpoint policy.  It forces
    every FTIM onto ``LF_UPDATE_PERIOD`` with *incremental* capture, so
    the leader ships one small state delta per update period (per
    workload message, at matching rates) instead of a full image every
    ``checkpoint_period``.  The follower's store merges each delta onto
    its latest image at insertion, so its newest mirrored image is
    always a full, near-fresh replica — promotion restarts the
    application without the checkpoint gap a cold-passive takeover
    replays into.
    """

    name = "leader-follower"

    def checkpoint_policy(self, app_name: str, requested: Optional[float]) -> Tuple[float, bool]:
        return LF_UPDATE_PERIOD, True


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


def create_strategy(name: str, engine: "OfttEngine") -> ColdPassiveStrategy:
    """Instantiate the strategy registered under *name* for *engine*."""
    cls = STRATEGIES.get(name)
    if cls is None:
        raise OfttError(f"unknown replication strategy {name!r}; available: {sorted(STRATEGIES)}")
    return cls(engine)
