"""The simulated Windows NT machine.

One :class:`NTSystem` sits on each network node and owns the process
table, the registry, perfmon, and — critically for the reproduction — the
crash modes demonstrated in §4 of the paper:

* :meth:`power_off` — demo (a), node failure: the machine vanishes from
  the network entirely.
* :meth:`bluescreen` — demo (b), NT crash: every process dies and the
  machine stops responding, but power is on; it can be rebooted.
* application/middleware failures — demos (c) and (d) — are process-level
  (:meth:`NTProcess.kill`) and injected by :mod:`repro.faults`.

§3.2 of the paper blames "the lack of determinism in Windows NT start-up"
for false shutdowns during role negotiation; :meth:`boot` therefore takes
a randomized delay drawn from the node's RNG stream so the startup
experiments can reproduce that behaviour.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.errors import NTError
from repro.nt.perfmon import PerfMon
from repro.nt.process import NTProcess, ProcessState
from repro.nt.registry import NTRegistry
from repro.simnet.kernel import SimKernel
from repro.simnet.network import NetNode
from repro.simnet.random import RngStreams
from repro.simnet.trace import TraceLog


class SystemState(enum.Enum):
    """Machine lifecycle."""

    OFF = "off"
    BOOTING = "booting"
    UP = "up"
    BLUESCREEN = "bluescreen"


class NTSystem:
    """A simulated NT machine bound to a network node."""

    def __init__(
        self,
        kernel: SimKernel,
        node: NetNode,
        rng: Optional[RngStreams] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.kernel = kernel
        self.node = node
        self.rng = (rng or RngStreams(0)).stream(f"nt:{node.name}")
        self.trace = trace if trace is not None else TraceLog(clock=lambda: kernel.now)
        #: A boot takes ``boot_time + U(0, boot_jitter)`` ms (see
        #: :meth:`boot`); X3 widens the jitter to reproduce §3.2's skew.
        self.boot_time = 200.0
        self.boot_jitter = 150.0
        #: Relative speed of this machine's clock (1.0 = nominal).  A
        #: value above 1.0 stretches the periods of OFTT timers driven
        #: from this machine — the observable effect of clock skew/drift
        #: between pair nodes (heartbeats and reports arrive late
        #: relative to the peer's timeouts).  Faults set this via
        #: :class:`repro.faults.faultlib.ClockSkew`.
        self.clock_scale = 1.0
        self.state = SystemState.OFF
        self.registry = NTRegistry()
        self.perfmon = PerfMon(self)
        self.processes: Dict[str, NTProcess] = {}
        # Per-machine pid allocation: a class-level counter would leak
        # state across scenarios in one Python process, so two runs of
        # the same seed would trace different pids (replay divergence).
        self._next_pid = 1000
        self.boot_count = 0
        self.booted_at: Optional[float] = None
        self.on_boot: List[Callable[["NTSystem"], None]] = []
        #: Invoked when the machine dies (power-off or bluescreen) so
        #: node-level services (e.g. the MSMQ manager) can apply their
        #: crash semantics (express-message purge, service pause).
        self.on_crash: List[Callable[["NTSystem"], None]] = []

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> float:
        """Start the machine; returns the time at which it will be UP.

        The actual boot duration is ``boot_time + U(0, boot_jitter)`` —
        the jitter is the paper's §3.2 start-up non-determinism.
        """
        if self.state in (SystemState.BOOTING, SystemState.UP):
            raise NTError(f"{self.node.name} already {self.state.value}")
        self.state = SystemState.BOOTING
        self.node.powered = True
        duration = self.boot_time + self.rng.uniform(0.0, self.boot_jitter)
        self.trace.emit("nt", self.node.name, "booting", eta=self.kernel.now + duration)
        self.kernel.schedule(duration, self._finish_boot)
        return self.kernel.now + duration

    def boot_immediately(self) -> None:
        """Bring the machine UP with no delay (test convenience)."""
        if self.state in (SystemState.BOOTING, SystemState.UP):
            raise NTError(f"{self.node.name} already {self.state.value}")
        self.state = SystemState.BOOTING
        self.node.powered = True
        self._finish_boot()

    def _finish_boot(self) -> None:
        if self.state is not SystemState.BOOTING:
            return  # powered off while booting
        self.state = SystemState.UP
        self.boot_count += 1
        self.booted_at = self.kernel.now
        self.trace.emit("nt", self.node.name, "boot-complete", count=self.boot_count)
        for callback in list(self.on_boot):  # callbacks may deregister themselves
            callback(self)

    def power_off(self) -> None:
        """Demo (a): node failure.  Kills everything and leaves the net."""
        self._kill_all_processes(reason="power-off")
        self.state = SystemState.OFF
        self.node.powered = False
        self.booted_at = None
        self.trace.emit("nt", self.node.name, "power-off")
        self._notify_crash()

    def bluescreen(self) -> None:
        """Demo (b): NT crash.  Processes die; machine stops responding."""
        if self.state is not SystemState.UP:
            raise NTError(f"bluescreen on machine in state {self.state.value}")
        self._kill_all_processes(reason="bluescreen")
        self.state = SystemState.BLUESCREEN
        # A bluescreened machine holds the link but services nothing; we
        # also stop the NIC answering so in-flight frames are dropped.
        self.node.powered = False
        self.booted_at = None
        self.trace.emit("nt", self.node.name, "bluescreen")
        self._notify_crash()

    def reboot(self) -> float:
        """Power-cycle (valid from OFF or BLUESCREEN)."""
        if self.state in (SystemState.BOOTING, SystemState.UP):
            raise NTError(f"reboot of machine in state {self.state.value}")
        self.state = SystemState.OFF
        return self.boot()

    def _notify_crash(self) -> None:
        for callback in list(self.on_crash):
            callback(self)

    def _kill_all_processes(self, reason: str) -> None:
        for process in list(self.processes.values()):
            if process.alive or process.state is ProcessState.CREATED:
                process.kill(code=-2)
        self.trace.emit("nt", self.node.name, "all-processes-killed", reason=reason)

    # -- process table ----------------------------------------------------------

    def allocate_pid(self) -> int:
        """Next process id on this machine (stride 4, NT-style)."""
        self._next_pid += 4
        return self._next_pid

    def create_process(self, name: str) -> NTProcess:
        """Create a process (machine must be UP; names must be unique among
        live processes — a dead same-named process is replaced)."""
        if self.state is not SystemState.UP:
            raise NTError(f"create_process while {self.node.name} is {self.state.value}")
        existing = self.processes.get(name)
        if existing is not None and existing.alive:
            raise NTError(f"process {name} already running on {self.node.name}")
        process = NTProcess(self, name)
        self.processes[name] = process
        return process

    def find_process(self, name: str) -> Optional[NTProcess]:
        """The process registered under *name*, if any (live or dead)."""
        return self.processes.get(name)

    def uptime(self) -> float:
        """Milliseconds since boot finished (0 when not UP)."""
        if self.state is not SystemState.UP or self.booted_at is None:
            return 0.0
        return self.kernel.now - self.booted_at

    @property
    def is_up(self) -> bool:
        """Whether the machine is fully booted."""
        return self.state is SystemState.UP

    def __repr__(self) -> str:
        return f"NTSystem({self.node.name}, {self.state.value}, processes={len(self.processes)})"
