"""Reliable watchdog timer objects.

The API exposes ``OFTTWatchdogCreate / Set / Reset / Delete`` (§2.2.2): an
application arms a watchdog and must keep resetting it; if it ever runs to
expiry the engine treats it as a component failure and applies the
recovery rule.  "Reliable" because the timer lives in the OFTT engine
process, not the application — a wedged application cannot also wedge the
mechanism that is supposed to catch it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import WatchdogError
from repro.simnet.kernel import SimKernel


class WatchdogTimer:
    """One watchdog, owned by an engine on behalf of an application."""

    def __init__(self, kernel: SimKernel, name: str, owner: str, on_expire: Callable[["WatchdogTimer"], None]) -> None:
        self.kernel = kernel
        self.name = name
        self.owner = owner
        self.on_expire = on_expire
        self.period: Optional[float] = None
        self.armed = False
        self.deleted = False
        self._timer = None

    def set(self, period: float) -> None:
        """Arm (or re-arm) the watchdog with *period*."""
        self._ensure_usable()
        if period <= 0:
            raise WatchdogError(f"watchdog {self.name}: period must be positive")
        self.period = period
        self._restart()
        self.armed = True

    def reset(self) -> None:
        """Pet the watchdog: restart the countdown."""
        self._ensure_usable()
        if not self.armed or self.period is None:
            raise WatchdogError(f"watchdog {self.name}: reset before set")
        self._restart()

    def stop(self) -> None:
        """Disarm without deleting (can be ``set`` again)."""
        self._ensure_usable()
        self.armed = False
        self._cancel()

    def delete(self) -> None:
        """Destroy the watchdog; further use is an error."""
        self._ensure_usable()
        self.deleted = True
        self.armed = False
        self._cancel()

    def _restart(self) -> None:
        self._cancel()
        self._timer = self.kernel.schedule(self.period, self._expired)

    def _cancel(self) -> None:
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _expired(self) -> None:
        if self.deleted or not self.armed:
            return
        self.armed = False
        self._timer = None
        self.on_expire(self)

    def _ensure_usable(self) -> None:
        if self.deleted:
            raise WatchdogError(f"watchdog {self.name}: used after delete")

    def __repr__(self) -> str:
        state = "deleted" if self.deleted else ("armed" if self.armed else "idle")
        return f"WatchdogTimer({self.name}, owner={self.owner}, {state}, period={self.period})"
