"""Win32-like API surface, dispatched through the process IAT.

The subset modelled is the one OFTT's checkpointing depends on:

* ``CreateThread`` / ``ExitThread`` / ``TerminateThread``
* ``GetThreadContext`` / ``SetThreadContext``
* ``EnumProcessThreads`` — which, matching the paper's complaint, only
  reports *statically created* threads.  Dynamically created threads can
  only be learned by patching the ``CreateThread`` IAT slot
  (:meth:`Kernel32.install_thread_tracker`).
* Watchdog-ish timer helpers built on the simulation kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NTError, ThreadDead
from repro.nt.process import NTProcess
from repro.nt.thread import NTThread, ThreadBody, ThreadContext, ThreadState


class ThreadHandle:
    """An opaque handle to a thread, as returned by ``CreateThread``."""

    def __init__(self, thread: NTThread) -> None:
        self._thread = thread
        self.closed = False

    @property
    def tid(self) -> int:
        """Thread id of the referenced thread."""
        return self._thread.tid

    def deref(self) -> NTThread:
        """Resolve the handle; closed handles fault."""
        if self.closed:
            raise ThreadDead(f"use of closed handle for tid {self._thread.tid}")
        return self._thread

    def close(self) -> None:
        """Close the handle (CloseHandle)."""
        self.closed = True

    def __repr__(self) -> str:
        return f"ThreadHandle(tid={self._thread.tid}, closed={self.closed})"


class Kernel32:
    """Per-process Win32 API facade.

    Every call is routed through the process's IAT, so hooks installed
    with :meth:`ImportAddressTable.patch` observe arguments and results.
    """

    APIS = (
        "CreateThread",
        "ExitThread",
        "TerminateThread",
        "GetThreadContext",
        "SetThreadContext",
        "EnumProcessThreads",
        "OpenThread",
        "CloseHandle",
        "GetCurrentProcessId",
    )

    def __init__(self, process: NTProcess) -> None:
        self.process = process
        self._iat_call = process.iat.call
        implementations: Dict[str, Callable[..., Any]] = {
            "CreateThread": self._create_thread,
            "ExitThread": self._exit_thread,
            "TerminateThread": self._terminate_thread,
            "GetThreadContext": self._get_thread_context,
            "SetThreadContext": self._set_thread_context,
            "EnumProcessThreads": self._enum_process_threads,
            "OpenThread": self._open_thread,
            "CloseHandle": self._close_handle,
            "GetCurrentProcessId": self._get_current_process_id,
        }
        for api_name in self.APIS:
            process.iat.register(api_name, implementations[api_name])

    # -- public call interface ---------------------------------------------

    def call(self, api_name: str, *args: Any) -> Any:
        """Invoke an API through the IAT (the only supported entry path)."""
        return self._iat_call(api_name, *args)

    # Convenience wrappers used by application code.

    def CreateThread(self, name: str, body: Optional[ThreadBody] = None) -> ThreadHandle:
        """Create a *dynamic* thread (invisible to EnumProcessThreads)."""
        return self._iat_call("CreateThread", name, body)

    def GetThreadContext(self, handle: ThreadHandle) -> ThreadContext:
        """Capture a thread's register context."""
        return self._iat_call("GetThreadContext", handle)

    def EnumProcessThreads(self) -> List[ThreadHandle]:
        """Handles of statically created, still-live threads only."""
        return self._iat_call("EnumProcessThreads")

    # -- helper for OFTT: the IAT interception trick -------------------------

    def install_thread_tracker(self) -> List[ThreadHandle]:
        """Patch ``CreateThread`` and return a live list of tracked handles.

        This is the paper's mechanism for learning dynamically created
        thread handles: the returned list grows as the application creates
        threads after the patch is installed.
        """
        tracked: List[ThreadHandle] = []

        def hook(_api: str, _args: Tuple[Any, ...], result: Any) -> None:
            tracked.append(result)

        self.process.iat.patch("CreateThread", hook)
        return tracked

    # -- implementations -------------------------------------------------------

    def _create_thread(self, name: str, body: Optional[ThreadBody]) -> ThreadHandle:
        thread = self.process.create_thread(name, body=body, dynamic=True)
        return ThreadHandle(thread)

    def _exit_thread(self, handle: ThreadHandle, code: int = 0) -> None:
        handle.deref().terminate(code)

    def _terminate_thread(self, handle: ThreadHandle, code: int = 1) -> None:
        handle.deref().terminate(code)

    def _get_thread_context(self, handle: ThreadHandle) -> ThreadContext:
        return handle.deref().capture_context()

    def _set_thread_context(self, handle: ThreadHandle, context: ThreadContext) -> None:
        thread = handle.deref()
        thread.context = context.snapshot()

    def _enum_process_threads(self) -> List[ThreadHandle]:
        threads = self.process.threads
        handles = []
        for tid in self.process.static_thread_tids:
            thread = threads.get(tid)
            if thread is not None and thread.state is not ThreadState.TERMINATED:
                handles.append(ThreadHandle(thread))
        return handles

    def _open_thread(self, tid: int) -> ThreadHandle:
        thread = self.process.threads.get(tid)
        if thread is None:
            raise NTError(f"OpenThread: no thread {tid} in {self.process.name}")
        if thread.dynamic:
            # Matching the paper: the handle of a dynamically created
            # thread "can not be accessed directly through the standard
            # Win32 APIs".
            raise NTError(f"OpenThread: tid {tid} was created dynamically; use the IAT hook")
        return ThreadHandle(thread)

    def _close_handle(self, handle: ThreadHandle) -> None:
        handle.close()

    def _get_current_process_id(self) -> int:
        return self.process.pid
