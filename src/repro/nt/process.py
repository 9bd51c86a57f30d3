"""Simulated NT processes.

An :class:`NTProcess` owns an address space, a thread table, an IAT, and
any network ports it has bound.  Crash semantics matter here: when a
process dies (app crash, bluescreen, power-off) its threads stop, its
ports unbind — so peers see connection failures and missing heartbeats —
but its *memory object is discarded*, which is exactly why OFTT must ship
checkpoints to the peer node.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ProcessDead
from repro.nt.iat import ImportAddressTable
from repro.nt.memory import AddressSpace
from repro.nt.thread import NTThread, ThreadBody, ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nt.system import NTSystem


class ProcessState(enum.Enum):
    """Lifecycle of an NT process."""

    CREATED = "created"
    RUNNING = "running"
    HUNG = "hung"
    EXITED = "exited"
    KILLED = "killed"


#: The states in which the kernel object still exists.  Bound once:
#: ``ProcessState.RUNNING`` is an Enum-class lookup (slow on CPython 3.11,
#: see ``repro.core.roles``), and ``alive`` is read on every heartbeat and
#: monitor tick.
_ALIVE_STATES = (ProcessState.RUNNING, ProcessState.HUNG)


class NTProcess:
    """A simulated NT process."""

    def __init__(self, system: "NTSystem", name: str) -> None:
        # pids come from the owning machine, not a class-level counter:
        # process-global counters survive across scenarios in one Python
        # process and make identical-seed runs trace different pids.
        self.pid = system.allocate_pid()
        self.system = system
        self.name = name
        self.state = ProcessState.CREATED
        self.exit_code: Optional[int] = None
        self.address_space = AddressSpace(name)
        self.iat = ImportAddressTable()
        self.threads: Dict[int, NTThread] = {}
        # Per-process tid allocation: tids name stack regions in the
        # checkpoint walkthrough, so a relaunched process must hand out
        # the same tids as its predecessor for images to compare equal.
        self._next_tid = 100
        self.static_thread_tids: List[int] = []
        self.bound_ports: List[str] = []
        self.on_exit: List[Callable[["NTProcess"], None]] = []

    # -- thread management ---------------------------------------------------

    def allocate_tid(self) -> int:
        """Next thread id in this process (stride 4, NT-style)."""
        self._next_tid += 4
        return self._next_tid

    def create_thread(self, name: str, body: Optional[ThreadBody] = None, dynamic: bool = True) -> NTThread:
        """Create (and start, if the process runs) a thread.

        Threads created before :meth:`start` are *static* — visible through
        the standard enumeration APIs.  Threads created afterwards (or with
        ``dynamic=True``) are only discoverable via the IAT hook, as in the
        paper.
        """
        if self.state in (ProcessState.EXITED, ProcessState.KILLED):
            raise ProcessDead(f"create_thread on dead process {self.name}")
        thread = NTThread(self, name, body=body, dynamic=dynamic)
        self.threads[thread.tid] = thread
        if not dynamic:
            self.static_thread_tids.append(thread.tid)
        if self.state is ProcessState.RUNNING:
            thread.start()
        return thread

    def start(self) -> None:
        """Transition to RUNNING and start all READY threads."""
        if self.state is not ProcessState.CREATED:
            raise ProcessDead(f"start on process {self.name} in state {self.state.value}")
        self.state = ProcessState.RUNNING
        for thread in list(self.threads.values()):
            if thread.state is ThreadState.READY:
                thread.start()
        self.system.trace.emit("nt", self.qualified_name, "process-started", pid=self.pid)

    def live_threads(self) -> List[NTThread]:
        """Threads not yet terminated."""
        return [t for t in self.threads.values() if t.state is not ThreadState.TERMINATED]

    def _on_thread_exit(self, thread: NTThread) -> None:
        # The process exits when its last thread does (NT semantics).
        if self.state is ProcessState.RUNNING and not self.live_threads():
            self.exit(0)

    # -- port ownership ---------------------------------------------------------

    def bind_port(self, port: str, handler: Callable[..., None]) -> None:
        """Bind a network port owned by this process."""
        if self.state in (ProcessState.EXITED, ProcessState.KILLED):
            raise ProcessDead(f"bind_port on dead process {self.name}")
        self.system.node.bind(port, handler)
        self.bound_ports.append(port)

    def unbind_ports(self) -> None:
        """Release every port this process bound."""
        for port in self.bound_ports:
            self.system.node.unbind(port)
        self.bound_ports.clear()

    # -- lifecycle ------------------------------------------------------------

    def exit(self, code: int = 0) -> None:
        """Orderly process exit."""
        if self.state in (ProcessState.EXITED, ProcessState.KILLED):
            return
        self.state = ProcessState.EXITED
        self.exit_code = code
        self._teardown()
        self.system.trace.emit("nt", self.qualified_name, "process-exited", code=code)
        self._notify_exit()

    def kill(self, code: int = -1) -> None:
        """Abrupt termination (application failure demo, TerminateProcess)."""
        if self.state in (ProcessState.EXITED, ProcessState.KILLED):
            return
        self.state = ProcessState.KILLED
        self.exit_code = code
        self._teardown()
        self.system.trace.emit("nt", self.qualified_name, "process-killed", code=code)
        self._notify_exit()

    def hang(self) -> None:
        """Stop all threads but keep the process object and memory.

        Models a wedged application: ports stay bound but nothing services
        them, and heartbeats stop flowing.
        """
        if self.state is not ProcessState.RUNNING:
            return
        self.state = ProcessState.HUNG
        for thread in self.live_threads():
            thread.suspend()
        self.system.trace.emit("nt", self.qualified_name, "process-hung")

    def _teardown(self) -> None:
        for thread in list(self.threads.values()):
            if thread.state is not ThreadState.TERMINATED:
                thread.state = ThreadState.TERMINATED
                if thread._sim_process is not None:
                    thread._sim_process.kill()
        self.unbind_ports()

    def _notify_exit(self) -> None:
        for callback in self.on_exit:
            callback(self)

    @property
    def alive(self) -> bool:
        """Running or hung — i.e. the kernel object still exists."""
        return self.state in _ALIVE_STATES

    @property
    def qualified_name(self) -> str:
        """``node/process`` label used in traces."""
        return f"{self.system.node.name}/{self.name}"

    def __repr__(self) -> str:
        return f"NTProcess({self.qualified_name}, pid={self.pid}, {self.state.value})"
