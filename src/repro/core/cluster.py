"""Pair assembly: wire two nodes into an OFTT logical execution unit.

"Two redundant computers are paired up via one or dual Ethernet networks
and form a single logic execution unit" (§2.1).  :class:`OfttPair` builds
exactly that: given two NT machines and an application factory, it
installs a :class:`NodeContext`, an engine and an application copy on each
node, starts negotiation, and exposes the queries fault-injection
harnesses need (who is primary, switchover timing, state of both copies).
A machine that is not up yet gets its stack, and its engine starts, when
its boot completes (§3.2's skewed start-up, experiment X3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.com.runtime import ComRuntime
from repro.core.appdriver import NodeContext, OfttApplication
from repro.core.config import OfttConfig
from repro.core.diverter import MessageDiverter
from repro.core.engine import OfttEngine
from repro.core.roles import BACKUP, PRIMARY
from repro.errors import OfttError
from repro.msq.manager import QueueManager
from repro.nt.system import NTSystem
from repro.simnet.network import Network

# app_factory() -> a fresh OfttApplication (or list of them) per node.
AppFactory = Callable[[], object]

# MSMQ store-and-forward retry of the pair's queue managers (§2.2.3
# diverter redelivery).  The retry interval after attempt *n* is
# ``min(MSQ_RETRY_INTERVAL * MSQ_RETRY_BACKOFF**(n-1), MSQ_RETRY_MAX_INTERVAL)``
# plus uniform jitter in ``[0, MSQ_RETRY_JITTER]`` drawn from the sim
# RNG (so replay determinism holds).  Managers built elsewhere (test
# PCs, diverter clients, the DR site) keep QueueManager's fixed cadence.
MSQ_RETRY_INTERVAL = 250.0
MSQ_RETRY_BACKOFF = 2.0
MSQ_RETRY_MAX_INTERVAL = 2_000.0
MSQ_RETRY_JITTER = 25.0

#: :meth:`OfttPair.settle` checks for a stable pair every SETTLE_STEP
#: simulated ms and gives up after SETTLE_TIMEOUT.
SETTLE_TIMEOUT = 30_000.0
SETTLE_STEP = 50.0


class OfttPair:
    """A primary/backup pair plus its application copies."""

    def __init__(
        self,
        network: Network,
        systems: Dict[str, NTSystem],
        config: OfttConfig,
        app_factory: AppFactory,
        unit: str = "unit",
        monitor_nodes: Optional[List[str]] = None,
        subscriber_nodes: Optional[List[str]] = None,
    ) -> None:
        if len(systems) != 2:
            raise OfttError("an OFTT pair needs exactly two systems")
        config.validate()
        self.network = network
        self.kernel = network.kernel
        self.config = config
        self.unit = unit
        self.node_names = sorted(systems)
        self.systems = systems
        # Per-node maps, filled as nodes are installed: in node order at
        # assembly, in boot order for nodes installed when they boot.
        self.contexts: Dict[str, NodeContext] = {}
        self.engines: Dict[str, OfttEngine] = {}
        #: First (primary) application per node — the common single-app case.
        self.apps: Dict[str, OfttApplication] = {}
        #: Every managed application per node.
        self.all_apps: Dict[str, List[OfttApplication]] = {}
        self.diverter = MessageDiverter(unit, self.node_names[0], self.node_names[1])
        self._app_factory = app_factory
        self._monitor_nodes = list(monitor_nodes or [])
        self._subscriber_nodes = list(subscriber_nodes or [])
        for name in self.node_names:
            if systems[name].is_up:
                self._install_node(name)
            else:
                systems[name].on_boot.append(self._install_on_boot)

    def _install_on_boot(self, system: NTSystem) -> None:
        """One-shot boot hook for a node that was not up at assembly."""
        system.on_boot.remove(self._install_on_boot)
        self._install_node(system.node.name)
        self.engines[system.node.name].start()

    def _install_node(self, name: str) -> None:
        system = self.systems[name]
        peer = self.node_names[1] if name == self.node_names[0] else self.node_names[0]
        runtime = ComRuntime(system, self.network)
        qmgr = QueueManager(
            self.kernel,
            self.network,
            system.node,
            retry_interval=MSQ_RETRY_INTERVAL,
            backoff_factor=MSQ_RETRY_BACKOFF,
            max_retry_interval=MSQ_RETRY_MAX_INTERVAL,
            retry_jitter=MSQ_RETRY_JITTER,
        )
        qmgr.attach_to_system(system)
        context = NodeContext(
            system=system,
            runtime=runtime,
            qmgr=qmgr,
            config=self.config,
            trace=self.network.trace,
        )
        produced = self._app_factory()
        applications = list(produced) if isinstance(produced, (list, tuple)) else [produced]
        for application in applications:
            application.install(context)
        engine = OfttEngine(
            context=context,
            peer_node=peer,
            application=applications,
            monitor_nodes=self._monitor_nodes,
            subscriber_nodes=self._subscriber_nodes,
        )
        engine.reinstall_hook = lambda node=name: self._policy_reinstall(node)
        self.diverter.open_inbox(qmgr)
        self.contexts[name] = context
        self.engines[name] = engine
        self.apps[name] = applications[0]
        self.all_apps[name] = applications

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Start the installed engines (they negotiate roles among
        themselves); a node still booting starts when its boot completes."""
        for engine in self.engines.values():
            engine.start()

    def reinstall_node(self, name: str) -> None:
        """Rebuild one node's stack after its machine was rebooted.

        Models the NT service restart path: the engine and application
        are recreated on the (booted) machine and rejoin the pair.
        """
        system = self.systems[name]
        if not system.is_up:
            raise OfttError(f"reinstall_node({name}): machine is not up")
        self._install_node(name)
        self.engines[name].start()

    def _policy_reinstall(self, name: str) -> None:
        """Engine-requested reinstall (adaptive ladder stage 3).

        Tears down the requesting engine (orderly, so its apps stop and
        its FTIMs do not fail-stop a fresh copy) and rebuilds the stack
        in place — the automated form of :meth:`reinstall_node`.
        """
        engine = self.engines.get(name)
        if engine is not None and engine.alive:
            engine.shutdown()
        if not self.systems[name].is_up:
            return  # machine died since the decision; a reboot hook rebuilds
        self._install_node(name)
        self.engines[name].start()

    # -- queries ------------------------------------------------------------------------

    def primary_node(self) -> Optional[str]:
        """The node whose live engine currently holds PRIMARY (None if
        none, which happens transiently during negotiation/switchover)."""
        primary = None
        for name, engine in self.engines.items():
            if engine.alive and engine.role is PRIMARY:
                if primary is not None:
                    raise OfttError(f"dual primary: {[primary, name]}")
                primary = name
        return primary

    def backup_node(self) -> Optional[str]:
        """The node whose live engine currently holds BACKUP."""
        for name, engine in self.engines.items():
            if engine.alive and engine.role is BACKUP:
                return name
        return None

    def running_app_nodes(self) -> List[str]:
        """Nodes where any application copy is currently executing."""
        return [name for name, apps in self.all_apps.items() if any(app.running for app in apps)]

    def is_stable(self) -> bool:
        """One live primary running the app (the pair's steady state)."""
        try:
            primary = self.primary_node()
        except OfttError:
            return False
        if primary is None:
            return False
        for app in self.all_apps[primary]:
            if not app.running:
                return False
        return True

    def settle(self) -> float:
        """Run the simulation until :meth:`is_stable` (returns the time).

        Raises :class:`OfttError` if the pair does not stabilise within
        :data:`SETTLE_TIMEOUT` simulated ms.
        """
        deadline = self.kernel.now + SETTLE_TIMEOUT
        while self.kernel.now < deadline:
            if self.is_stable():
                return self.kernel.now
            self.kernel.run(until=self.kernel.now + SETTLE_STEP)
        if self.is_stable():
            return self.kernel.now
        raise OfttError(f"pair {self.unit} did not stabilise within {SETTLE_TIMEOUT}ms")

    def __repr__(self) -> str:
        roles = {name: engine.role.value for name, engine in self.engines.items()}
        return f"OfttPair({self.unit}, roles={roles})"
