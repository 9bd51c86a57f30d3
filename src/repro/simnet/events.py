"""Yieldable synchronization primitives for simulation processes.

A :class:`~repro.simnet.kernel.Process` drives a generator.  The generator
yields one of the objects defined here (or another ``Process``) and is
resumed when that object *fires*.  The value the object fired with becomes
the result of the ``yield`` expression.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

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

    def _arm(self, kernel) -> None:
        """Hook for the kernel: schedule whatever makes this fire.

        Most waitables are externally triggered and need nothing;
        :class:`Timeout` (and composites containing one) override this.
        """


class Timeout(Waitable):
    """Fires after *delay* units of simulated time.

    The kernel arms the timeout when the yielding process is suspended.
    """

    def __init__(self, delay: float, value: Any = None) -> None:
        if not delay >= 0.0:
            # Also rejects NaN, as SimKernel.schedule does.
            raise SimError(f"negative timeout delay: {delay}")
        super().__init__()
        self.delay = delay
        self.timeout_value = value
        self._armed = False

    def _arm(self, kernel) -> None:
        if self._armed or self._fired:
            return
        self._armed = True
        kernel.schedule(self.delay, self._fire_if_needed)

    def _fire_if_needed(self) -> None:
        if not self._fired:
            self._fire(self.timeout_value)

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


class AnyOf(Waitable):
    """Fires when the first of *waitables* fires.

    The value is a ``(index, value)`` pair identifying which child fired
    first and what it carried.  Children that fire later are ignored.
    """

    def __init__(self, waitables: List[Waitable]) -> None:
        if not waitables:
            raise SimError("AnyOf requires at least one waitable")
        super().__init__()
        self.waitables = list(waitables)
        for index, waitable in enumerate(self.waitables):
            waitable.add_callback(self._make_child_callback(index))

    def _arm(self, kernel) -> None:
        for waitable in self.waitables:
            waitable._arm(kernel)

    def _make_child_callback(self, index: int) -> Callable[[Waitable], None]:
        def on_child(child: Waitable) -> None:
            if not self._fired:
                self._fire((index, child.value))

        return on_child

    def __repr__(self) -> str:
        return f"AnyOf({len(self.waitables)} children, fired={self._fired})"


class AllOf(Waitable):
    """Fires when every one of *waitables* has fired.

    The value is the list of child values in construction order.
    """

    def __init__(self, waitables: List[Waitable]) -> None:
        if not waitables:
            raise SimError("AllOf requires at least one waitable")
        super().__init__()
        self.waitables = list(waitables)
        self._remaining = len(self.waitables)
        for waitable in self.waitables:
            waitable.add_callback(self._on_child)

    def _arm(self, kernel) -> None:
        for waitable in self.waitables:
            waitable._arm(kernel)

    def _on_child(self, _child: Waitable) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self._fired:
            self._fire([w.value for w in self.waitables])

    def __repr__(self) -> str:
        return f"AllOf({len(self.waitables)} children, fired={self._fired})"


class Condition(Waitable):
    """Fires the first time :meth:`poll` is called with the predicate true.

    Useful for level-triggered waits where the kernel has no edge to hook:
    the owner calls ``poll()`` whenever relevant state changes.
    """

    def __init__(self, predicate: Callable[[], bool], name: str = "") -> None:
        super().__init__()
        self.predicate = predicate
        self.name = name

    def poll(self) -> bool:
        """Evaluate the predicate; fire (once) if it holds.

        Returns whether the condition has fired (now or earlier).
        """
        if not self._fired and self.predicate():
            self._fire(True)
        return self._fired

    def __repr__(self) -> str:
        return f"Condition({self.name or 'anonymous'}, fired={self._fired})"


def first_fired(composite_value: Any) -> Optional[int]:
    """Return the child index from an :class:`AnyOf` yield value."""
    if composite_value is None:
        return None
    index, _value = composite_value
    return index
