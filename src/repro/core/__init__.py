"""The OFTT middleware toolkit — the paper's primary contribution.

Layout mirrors Figure 2 of the paper:

* :class:`OfttEngine` (:mod:`~repro.core.engine`) — role management,
  failure detection, recovery management, status reporting.
* :class:`ClientFtim` / :class:`ServerFtim` (:mod:`~repro.core.ftim`) —
  the fault tolerance interface modules linked into applications.
* :class:`OfttApi` (:mod:`~repro.core.api`) — ``OFTTInitialize`` and
  friends, the paper's §2.2.2 API surface.
* :class:`MessageDiverter` / :class:`DiverterClient`
  (:mod:`~repro.core.diverter`) — MSMQ-based logical-unit addressing.
* :class:`SystemMonitor` (:mod:`~repro.core.monitor`) — the status
  display component.
* :class:`OfttPair` (:mod:`~repro.core.cluster`) — assembles a
  primary/backup pair with an application, ready for fault injection.
* :class:`ColdPassiveStrategy` (:mod:`~repro.core.strategy`) — the
  base of the pluggable replication modes: the paper's cold-passive
  pair, LLFT-style leader-follower streaming, and log-replay disaster
  recovery backed by the remote :class:`DRSite`
  (:mod:`~repro.core.drsite`).

:class:`OfttConfig` holds the settings a deployment chooses; the
engine's fixed settings are constants beside the code that reads them.
"""

from repro.core.config import (
    OfttConfig,
    RecoveryRule,
    RecoveryAction,
    GiveUpPolicy,
    REPLICATION_STRATEGIES,
)
from repro.core.status import ComponentKind, ComponentStatus, StatusReport
from repro.core.heartbeat import HeartbeatMonitor
from repro.core.roles import Role, RoleNegotiator
from repro.core.checkpoint import Checkpoint, CheckpointStore
from repro.core.watchdog import WatchdogTimer
from repro.core.recovery import RecoveryManager
from repro.core.appdriver import NodeContext, OfttApplication
from repro.core.ftim import ClientFtim, ServerFtim
from repro.core.api import OfttApi
from repro.core.engine import OfttEngine
from repro.core.diverter import DiverterClient, MessageDiverter, inbox_queue_name
from repro.core.monitor import SystemMonitor
from repro.core.cluster import OfttPair
from repro.core.strategy import (
    ColdPassiveStrategy,
    LeaderFollowerStrategy,
    LogReplayDRStrategy,
    create_strategy,
)
from repro.core.drsite import DRSite

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "ClientFtim",
    "ColdPassiveStrategy",
    "ComponentKind",
    "ComponentStatus",
    "DRSite",
    "DiverterClient",
    "GiveUpPolicy",
    "HeartbeatMonitor",
    "LeaderFollowerStrategy",
    "LogReplayDRStrategy",
    "MessageDiverter",
    "NodeContext",
    "OfttApi",
    "OfttApplication",
    "OfttConfig",
    "OfttEngine",
    "OfttPair",
    "REPLICATION_STRATEGIES",
    "RecoveryAction",
    "RecoveryManager",
    "RecoveryRule",
    "Role",
    "RoleNegotiator",
    "ServerFtim",
    "StatusReport",
    "SystemMonitor",
    "WatchdogTimer",
    "create_strategy",
    "inbox_queue_name",
]
