"""Simulated NT threads with register contexts.

A thread's *body* is a generator factory: ``body(thread)`` returns a
generator that the simulation kernel drives as a cooperative process.
The register context (program counter, stack pointer) advances as the
body runs, giving ``GetThreadContext()`` something meaningful to return
for the checkpoint walkthrough.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional, TYPE_CHECKING

from repro.errors import ThreadDead
from repro.nt.memory import STACK, MemoryRegion, copy_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nt.process import NTProcess

ThreadBody = Callable[["NTThread"], Generator[Any, Any, Any]]


class ThreadState(enum.Enum):
    """Lifecycle of an NT thread."""

    READY = "ready"
    RUNNING = "running"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


@dataclass(slots=True)
class ThreadContext:
    """A register snapshot, as returned by ``GetThreadContext``."""

    program_counter: int = 0x0040_0000
    stack_pointer: int = 0x0012_F000
    registers: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "ThreadContext":
        """Deep copy for checkpointing (empty registers skip the copier)."""
        registers = self.registers
        return ThreadContext(
            self.program_counter, self.stack_pointer, copy_value(registers, {})[0] if registers else {}
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in serialized checkpoints.

        The dict holds this context's own registers dict, not a copy:
        call it on a context the caller owns, such as the snapshot
        ``GetThreadContext`` returns, so a capture copies each register
        set once.
        """
        return {
            "program_counter": self.program_counter,
            "stack_pointer": self.stack_pointer,
            "registers": self.registers,
        }


# Bound once: ``ThreadState.TERMINATED`` takes ``EnumType``'s slow
# attribute path on CPython 3.11 (see :mod:`repro.core.roles`), and
# every checkpoint capture tests each thread's state.
TERMINATED = ThreadState.TERMINATED


class NTThread:
    """A simulated NT thread.

    Parameters
    ----------
    process:
        Owning process.
    name:
        Human-readable name (also names the stack region).
    body:
        Optional generator factory; a thread without a body is a pure
        kernel object (useful in tests).
    dynamic:
        True when created at runtime via ``CreateThread`` — such threads
        are invisible to the standard enumeration APIs (the paper's §3.1
        problem) unless an IAT hook recorded them.
    """

    def __init__(
        self,
        process: "NTProcess",
        name: str,
        body: Optional[ThreadBody] = None,
        dynamic: bool = False,
        start_address: int = 0x0040_1000,
    ) -> None:
        # tids are allocated per-process (see NTProcess.allocate_tid);
        # the tid names the stack region below, so it must be stable
        # across relaunches for checkpoint images to round-trip.
        self.tid = process.allocate_tid()
        self.process = process
        self.name = name
        self.body = body
        self.dynamic = dynamic
        self.start_address = start_address
        self.state = ThreadState.READY
        self.context = ThreadContext(program_counter=start_address)
        self.exit_code: Optional[int] = None
        self.stack: MemoryRegion = process.address_space.map_region(f"stack:{name}:{self.tid}", STACK)
        self._sim_process = None  # repro.simnet.kernel.Process once started

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Begin executing the body on the simulation kernel (idempotent)."""
        if self.state is ThreadState.TERMINATED:
            raise ThreadDead(f"thread {self.name} already terminated")
        if self.state is ThreadState.RUNNING:
            return  # already executing; starting twice must not fork the body
        self.state = ThreadState.RUNNING
        if self.body is not None:
            generator = self._instrumented(self.body(self))
            self._sim_process = self.process.system.kernel.spawn(
                generator, name=f"{self.process.name}/{self.name}"
            )
            self._sim_process.add_callback(self._on_body_finished)

    def _instrumented(self, inner: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
        """Advance the register context each time the body resumes."""
        result = None
        try:
            while True:
                target = inner.send(result)
                self.context.program_counter += 4
                result = yield target
        except StopIteration as stop:
            return stop.value

    def _on_body_finished(self, sim_process: Any) -> None:
        if self.state is ThreadState.SUSPENDED:
            return  # deliberate suspension, not a body exit
        if self.state is not ThreadState.TERMINATED:
            self.state = ThreadState.TERMINATED
            self.exit_code = 0
            self.process._on_thread_exit(self)

    def terminate(self, exit_code: int = 1) -> None:
        """Kill the thread (models ``TerminateThread``)."""
        if self.state is ThreadState.TERMINATED:
            return
        self.state = ThreadState.TERMINATED
        self.exit_code = exit_code
        if self._sim_process is not None:
            self._sim_process.kill()
        self.process._on_thread_exit(self)

    def suspend(self) -> None:
        """Freeze the thread; its sim process is interrupted-killed but its
        memory and context remain (models a hang / SuspendThread)."""
        if self.state is not ThreadState.RUNNING:
            return
        self.state = ThreadState.SUSPENDED
        if self._sim_process is not None:
            self._sim_process.kill()
            self._sim_process = None

    # -- checkpointing hooks -----------------------------------------------

    def capture_context(self) -> ThreadContext:
        """What ``GetThreadContext`` returns."""
        if self.state is TERMINATED:
            raise ThreadDead(f"GetThreadContext on dead thread {self.name}")
        return self.context.snapshot()

    def __repr__(self) -> str:
        flag = " dynamic" if self.dynamic else ""
        return f"NTThread({self.name}, tid={self.tid}, {self.state.value}{flag})"
