"""Scenario builders for the paper's configurations.

* :func:`build_demo` — Figure 3 + Table 1: three PCs on an Ethernet; a
  primary/backup pair running the Call Track application (with OFTT
  engine + client FTIM), and a test/interface PC running the OFTT System
  Monitor, the Telephone System Simulator and the Calling History
  generator.
* :func:`build_remote_monitoring` — Figure 1(a): PLC + fieldbus devices,
  an industrial PC exposing them through an OPC server, and a redundant
  monitor/control PC pair running an OFTT-protected SCADA client.
* :func:`build_integrated` — Figure 1(b): the pair itself hosts both the
  OPC server app (device interface, server FTIM) and the monitoring
  client app (client FTIM).

Every scenario is a :class:`Scenario`: it owns its kernel/network/trace,
is deterministic for a given seed, and exposes the attribute set
:mod:`repro.faults` expects (``systems``, ``network``, ``partitions``,
``pair``, ``fieldbuses``).  Every world is built with the same three
steps: :meth:`Scenario.add_machine`, :meth:`Scenario.add_pair` and
:meth:`Scenario.add_client`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.calltrack import CallTrackApp
from repro.apps.history import CallingHistoryGenerator
from repro.apps.opcserver import OpcServerApp
from repro.apps.scada import AlarmRule, ScadaMonitorApp
from repro.core.cluster import AppFactory, OfttPair
from repro.core.config import OfttConfig, replace_config
from repro.core.diverter import DiverterClient, inbox_queue_name
from repro.core.drsite import DRSite, DR_QUEUE
from repro.core.monitor import SystemMonitor
from repro.devices.device import Actuator, Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.signals import RandomWalk, Sine
from repro.devices.telephone import TelephoneSystem
from repro.faults.faultlib import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure
from repro.msq.manager import QueueManager
from repro.nt.system import NTSystem
from repro.opc.server import OpcServer
from repro.com.runtime import ComRuntime
from repro.simnet.kernel import ScheduleHandle, SimKernel
from repro.simnet.network import Network
from repro.simnet.partitions import PartitionController
from repro.simnet.random import RngStreams
from repro.simnet.trace import TraceLog

#: Node names used by the Figure 3 demo configuration.
DEMO_NODES = ("node1", "node2")
TEST_PC = "test-pc"
#: The §4 demonstration faults (a)-(d) in demo order, each made from the
#: node it strikes.
DEMO_FAULTS = (
    NodeFailure,
    BlueScreen,
    lambda node: AppCrash(node, "calltrack"),
    MiddlewareCrash,
)


class Scenario:
    """The simulated world: kernel, RNG, trace, network, LANs, NT machines.

    Subclasses wire their own machines, pair and workload on top; a bare
    instance is a world with LANs and no machines yet.
    """

    def __init__(self, seed: int, dual_lan: bool, config: Optional[OfttConfig] = None) -> None:
        self.seed = seed
        self.config = config or OfttConfig()
        self.kernel = SimKernel()
        self.rngs = RngStreams(seed)
        self.trace = TraceLog(clock=lambda: self.kernel.now)
        self.network = Network(self.kernel, self.rngs, self.trace)
        self.partitions = PartitionController(self.network)
        self.systems: Dict[str, NTSystem] = {}
        self.fieldbuses: Dict[str, Fieldbus] = {}
        self.pair: Optional[OfttPair] = None
        self.lans = ["lan0", "lan1"] if dual_lan else ["lan0"]
        for lan in self.lans:
            self.network.add_link(lan, latency=0.5, jitter=0.1)

    def add_machine(self, name: str, lans: Optional[List[str]] = None, boot: bool = True) -> NTSystem:
        """Add node *name* on *lans* (default: every LAN) with its NT
        machine, booted at once unless *boot* is false."""
        self.network.add_node(name)
        for lan in lans if lans is not None else self.lans:
            self.network.attach(name, lan)
        system = NTSystem(self.kernel, self.network.nodes[name], self.rngs, self.trace)
        self.systems[name] = system
        if boot:
            system.boot_immediately()
        return system

    def add_pair(self, nodes: Sequence[str], app_factory: AppFactory, unit: str, **roles) -> OfttPair:
        """Assemble the scenario's OFTT pair on machines *nodes* (booted or
        still booting); *roles* are :class:`OfttPair`'s ``monitor_nodes``
        and ``subscriber_nodes``."""
        self.pair = OfttPair(
            network=self.network,
            systems={name: self.systems[name] for name in nodes},
            config=self.config,
            app_factory=app_factory,
            unit=unit,
            **roles,
        )
        return self.pair

    def add_client(self, name: str, mirror: Optional[Tuple[str, str]] = None) -> DiverterClient:
        """A diverter client of the pair on machine *name*, sending through
        its own queue manager (``client.qmgr``)."""
        return DiverterClient(
            node=self.network.nodes[name],
            qmgr=self._queue_manager(name),
            unit=self.pair.unit,
            pair_nodes=self.pair.node_names,
            trace=self.trace,
            mirror=mirror,
        )

    def _queue_manager(self, name: str) -> QueueManager:
        qmgr = QueueManager(self.kernel, self.network, self.network.nodes[name])
        qmgr.attach_to_system(self.systems[name])
        return qmgr

    def start(self, settle: bool = True) -> None:
        """Start the pair and, with *settle*, run until its roles are decided."""
        self.pair.start()
        if settle:
            self.pair.settle()

    def primary_app(self):
        """The app copy currently executing (None during failover)."""
        primary = self.pair.primary_node()
        return self.pair.apps[primary] if primary is not None else None

    def run(self, until: float) -> float:
        """Advance simulated time to *until*."""
        return self.kernel.run(until=until)

    def run_for(self, duration: float) -> float:
        """Advance simulated time by *duration*."""
        return self.kernel.run(until=self.kernel.now + duration)


class DemoScenario(Scenario):
    """Figure 3 / Table 1: the Call Track demonstration testbed."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[OfttConfig] = None,
        dual_lan: bool = True,
        lines: int = 5,
        callers: int = 10,
        mean_idle: float = 8_000.0,
        mean_call: float = 4_000.0,
        save_on_end: bool = True,
    ) -> None:
        super().__init__(seed, dual_lan, config)
        for name in DEMO_NODES:
            self.add_machine(name)
        # The test PC needs only one network path in the paper's figure.
        self.add_machine(TEST_PC, lans=[self.lans[0]])

        # The redundant pair runs the Call Track application.
        self.add_pair(
            DEMO_NODES,
            lambda: CallTrackApp(unit="calltrack", lines=lines, save_on_end=save_on_end),
            unit="calltrack",
            monitor_nodes=[TEST_PC],
            subscriber_nodes=[TEST_PC],
        )

        # Test/interface PC: monitor + telephone simulator + history.
        self.monitor = SystemMonitor(self.kernel, self.network.nodes[TEST_PC])
        self.diverter_client = self.add_client(TEST_PC)
        self.test_qmgr = self.diverter_client.qmgr
        self.telephone = TelephoneSystem(
            self.kernel,
            self.rngs.stream("telephone"),
            lines=lines,
            callers=callers,
            mean_idle=mean_idle,
            mean_call=mean_call,
        )
        self.history = CallingHistoryGenerator(self.telephone)
        # Kept as an attribute so experiments can swap the transport
        # (e.g. X4's naive sender) without disturbing the history recorder.
        self.forward_listener = lambda event: self.diverter_client.send(event.as_wire(), label=event.kind)
        self.telephone.add_listener(self.forward_listener)

    def start(self, settle: bool = True) -> None:
        """Start the pair and the workload."""
        super().start(settle)
        self.telephone.start()


class RemoteMonitoringScenario(Scenario):
    """Figure 1(a): control with remote monitoring."""

    INDUSTRIAL_PC = "industrial-pc"
    PAIR_NODES = ("monitor1", "monitor2")

    def __init__(
        self,
        seed: int = 0,
        config: Optional[OfttConfig] = None,
        dual_lan: bool = True,
        scan_period: float = 50.0,
        update_rate: float = 200.0,
    ) -> None:
        super().__init__(seed, dual_lan, config)

        # Plant floor: fieldbus, devices, PLC.
        bus = Fieldbus("devicenet0")
        bus.attach(Sensor("temp", Sine(offset=60.0, amplitude=25.0, period=20_000.0), noise=0.3))
        bus.attach(Sensor("pressure", RandomWalk(start=5.0, step=0.05, mean=5.0, minimum=0.0)))
        bus.attach(Sensor("flow", RandomWalk(start=120.0, step=1.0, mean=120.0, minimum=0.0)))
        bus.attach(Actuator("cooling_pump"))
        self.fieldbuses[bus.name] = bus
        self.plc = PLC(self.kernel, "plc1", bus, self.rngs.stream("plc"), scan_period=scan_period)
        self.plc.map_output("cooling_pump")

        def interlock(inputs, outputs, _time) -> None:
            outputs["cooling_pump"] = 1.0 if inputs.get("temp", 0.0) > 75.0 else 0.0

        self.plc.add_logic(interlock)

        # Industrial PC: hosts the (unprotected) OPC server for the PLC.
        industrial = self.add_machine(self.INDUSTRIAL_PC)
        self.industrial_runtime = ComRuntime(industrial, self.network)
        self.opc_server = OpcServer(self.industrial_runtime, "OPC.Plant.1")
        self.bridge = PlcOpcBridge(self.kernel, self.plc, self.opc_server, poll_period=update_rate / 2.0)
        self.server_ref = self.industrial_runtime.export(self.opc_server, label="OPC.Plant.1")

        # Monitor/control PC pair with the protected SCADA client.
        for name in self.PAIR_NODES:
            self.add_machine(name)
        items = ["plc1.temp", "plc1.pressure", "plc1.flow", "plc1.cooling_pump"]
        alarms = [AlarmRule("plc1.temp", high_limit=80.0, control_write=("plc1.cooling_pump", 1.0))]
        self.add_pair(
            self.PAIR_NODES,
            lambda: ScadaMonitorApp(server_ref=self.server_ref, items=items, alarms=alarms, update_rate=update_rate),
            unit="scada",
        )

    def start(self, settle: bool = True) -> None:
        """Start plant, server and the protected pair."""
        self.plc.start()
        self.bridge.start()
        super().start(settle)


class IntegratedScenario(Scenario):
    """Figure 1(b): integrated monitoring and control.

    The pair nodes host *both* the OPC server app (device interface,
    stateless server FTIM) and the monitoring client app (client FTIM) —
    the full Figure 2 software architecture on one pair.
    """

    PAIR_NODES = ("mc1", "mc2")

    def __init__(
        self,
        seed: int = 0,
        config: Optional[OfttConfig] = None,
        dual_lan: bool = True,
        scan_period: float = 50.0,
    ) -> None:
        super().__init__(seed, dual_lan, config)

        bus = Fieldbus("fieldbus0")
        bus.attach(Sensor("level", RandomWalk(start=50.0, step=0.5, mean=50.0, minimum=0.0, maximum=100.0)))
        bus.attach(Sensor("temp", Sine(offset=40.0, amplitude=15.0, period=15_000.0)))
        bus.attach(Actuator("inlet_valve"))
        self.fieldbuses[bus.name] = bus
        self.plc = PLC(self.kernel, "plc1", bus, self.rngs.stream("plc"), scan_period=scan_period)
        self.plc.map_output("inlet_valve")

        def level_control(inputs, outputs, _time) -> None:
            outputs["inlet_valve"] = 1.0 if inputs.get("level", 50.0) < 45.0 else 0.0

        self.plc.add_logic(level_control)

        for name in self.PAIR_NODES:
            self.add_machine(name)

        def make_apps():
            server_app = OpcServerApp(self.plc, server_name="OPC.Integrated.1")
            client_app = ScadaMonitorApp(
                server_ref=None,  # wired on export below (local server)
                items=["plc1.level", "plc1.temp", "plc1.inlet_valve"],
                alarms=[AlarmRule("plc1.level", high_limit=70.0)],
            )
            # The client connects to whatever ObjRef the co-located server
            # app exports on each (re)launch.
            server_app.on_export.append(lambda ref: setattr(client_app, "server_ref", ref))
            return [server_app, client_app]

        self.add_pair(self.PAIR_NODES, make_apps, unit="integrated")

    def start(self, settle: bool = True) -> None:
        """Start plant and pair."""
        self.plc.start()
        super().start(settle)


class PairEnvScenario(Scenario):
    """A minimal two-node environment hosting an arbitrary app pair.

    The lightest thing that still satisfies the :mod:`repro.faults`
    environment contract — used by benchmark experiments and by the
    replay checker's checkpoint round-trip subjects.
    """

    NODES = ("alpha", "beta")

    def __init__(
        self,
        seed: int = 0,
        config: Optional[OfttConfig] = None,
        app_factory=None,
        unit: str = "bench",
        dual_lan: bool = False,
    ) -> None:
        super().__init__(seed, dual_lan, config)
        for name in self.NODES:
            self.add_machine(name)
        self.add_pair(self.NODES, app_factory, unit=unit)


class ChaosScenario(Scenario):
    """The randomized-campaign testbed used by :mod:`repro.chaos`.

    A pair (``alpha``/``beta``) runs the synthetic stateful application
    (hot counters + checkpoints) while an external ``client`` node feeds
    a steady diverter workload, all on one LAN — so every chaos run exercises role
    negotiation, checkpointing, MSMQ store-and-forward and the diverter
    redirect path at once, and the invariant monitors have live signals
    (checkpoint hooks, queue conservation counters) to watch.

    The replication strategy comes from ``config.replication_strategy``.
    Non-default strategies make the workload *message-driven* — the app
    consumes the diverter inbox and folds ``applied``/``last_n`` into
    checkpointed state — and ``log-replay-dr`` additionally wires a
    fourth ``dr-site`` node (checkpoint mirror target + sender-side
    message log + the :class:`~repro.core.drsite.DRSite` watcher).  The
    default cold-passive testbed is structurally unchanged.
    """

    PAIR_NODES = ("alpha", "beta")
    CLIENT = "client"
    DR_NODE = "dr-site"
    APP_NAME = "synthetic"

    def __init__(
        self,
        seed: int = 0,
        config: Optional[OfttConfig] = None,
        workload_period: float = 200.0,
        checkpoint_period: float = 500.0,
        message_driven: Optional[bool] = None,
    ) -> None:
        super().__init__(seed, dual_lan=False, config=config)
        if self.config.replication_strategy == "log-replay-dr" and not self.config.dr_node:
            self.config = replace_config(self.config, dr_node=self.DR_NODE)
        self.strategy_name = self.config.replication_strategy
        self.message_driven = (
            message_driven if message_driven is not None else self.strategy_name != "cold-passive"
        )
        self.workload_period = workload_period
        self.workload_sent = 0
        self._workload_on = False
        self._workload_timer: Optional[ScheduleHandle] = None

        from repro.apps.synthetic import SyntheticStateApp

        for name in self.PAIR_NODES:
            self.add_machine(name)
        self.add_machine(self.CLIENT)

        inbox = inbox_queue_name("chaos") if self.message_driven else None
        self.add_pair(
            self.PAIR_NODES,
            lambda: SyntheticStateApp(
                cold_kb=4,
                hot_vars=4,
                tick_period=100.0,
                checkpoint_period=checkpoint_period,
                inbox_queue=inbox,
            ),
            unit="chaos",
            subscriber_nodes=[self.CLIENT],
        )

        self.dr_site: Optional[DRSite] = None
        mirror = None
        if self.strategy_name == "log-replay-dr":
            dr_system = self.add_machine(self.config.dr_node)
            self.dr_site = DRSite(
                kernel=self.kernel,
                system=dr_system,
                qmgr=self._queue_manager(self.config.dr_node),
                trace=self.trace,
                app_name=self.APP_NAME,
                apply_message=SyntheticStateApp.apply_message,
            )
            mirror = (self.config.dr_node, DR_QUEUE)

        self.diverter_client = self.add_client(self.CLIENT, mirror=mirror)
        self.client_qmgr = self.diverter_client.qmgr

    def start(self, settle: bool = True) -> None:
        """Start the pair and the client workload."""
        super().start(settle)
        self._workload_on = True
        self._workload_tick()

    def stop_workload(self) -> None:
        """Stop generating client traffic (drain phase of a run)."""
        self._workload_on = False
        if self._workload_timer is not None:
            self.kernel.cancel(self._workload_timer)
            self._workload_timer = None

    def _workload_tick(self) -> None:
        if not self._workload_on:
            return
        self.workload_sent += 1
        self.diverter_client.send({"op": "tick", "n": self.workload_sent}, label="workload")
        self._workload_timer = self.kernel.schedule(self.workload_period, self._workload_tick)


def build_pair_env(seed: int = 0, config: Optional[OfttConfig] = None, app_factory=None, **kwargs) -> PairEnvScenario:
    """Construct (without starting) a minimal two-node pair environment."""
    return PairEnvScenario(seed=seed, config=config, app_factory=app_factory, **kwargs)


def build_demo(seed: int = 0, config: Optional[OfttConfig] = None, **kwargs) -> DemoScenario:
    """Construct (without starting) the Figure 3 demo scenario."""
    return DemoScenario(seed=seed, config=config, **kwargs)


def build_remote_monitoring(seed: int = 0, config: Optional[OfttConfig] = None, **kwargs) -> RemoteMonitoringScenario:
    """Construct (without starting) the Figure 1(a) scenario."""
    return RemoteMonitoringScenario(seed=seed, config=config, **kwargs)


def build_integrated(seed: int = 0, config: Optional[OfttConfig] = None, **kwargs) -> IntegratedScenario:
    """Construct (without starting) the Figure 1(b) scenario."""
    return IntegratedScenario(seed=seed, config=config, **kwargs)
