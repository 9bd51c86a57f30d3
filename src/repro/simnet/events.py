"""Yieldable synchronization primitives for simulation processes.

A :class:`~repro.simnet.kernel.Process` drives a generator.  The generator
yields one of the objects defined here (or another ``Process``) and is
resumed when that object *fires*.  The value the object fired with becomes
the result of the ``yield`` expression.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.errors import SimError


class Waitable:
    """Base class for everything a process may ``yield``.

    A waitable fires at most once.  Callbacks registered after it fired are
    invoked immediately (so late waiters do not hang).
    """

    def __init__(self) -> None:
        self._fired = False
        self._value: Any = None
        self._callbacks: List[Callable[["Waitable"], None]] = []

    @property
    def fired(self) -> bool:
        """Whether this waitable has already fired."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value this waitable fired with (``None`` before firing)."""
        return self._value

    def add_callback(self, callback: Callable[["Waitable"], None]) -> None:
        """Invoke *callback(self)* when the waitable fires."""
        if self._fired:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimError(f"{self!r} fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Waitable):
    """Fires after *delay* units of simulated time.

    The first process that waits on a timeout arms it: the kernel
    schedules that process's resume *delay* later, and the resume fires
    the timeout (``Process._resume_from``).  A timeout no process has
    waited on never fires.
    """

    def __init__(self, delay: float, value: Any = None) -> None:
        if not delay >= 0.0:
            # Also rejects NaN, as SimKernel.schedule does.
            raise SimError(f"negative timeout delay: {delay}")
        super().__init__()
        self.delay = delay
        self.timeout_value = value
        self._armed = False

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Event(Waitable):
    """A manually triggered event.

    Any number of processes may wait on the same event; all are resumed
    with the value passed to :meth:`succeed`.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name

    def succeed(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters."""
        self._fire(value)

    def __repr__(self) -> str:
        label = self.name or hex(id(self))
        return f"Event({label}, fired={self._fired})"
