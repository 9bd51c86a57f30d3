"""Applying faults to a scenario environment."""

from __future__ import annotations

from typing import Any

from repro.faults.faultlib import Fault
from repro.simnet.kernel import SimKernel


class FaultInjector:
    """Schedules and applies faults against one environment.

    The environment is duck-typed; see :mod:`repro.faults.faultlib` for
    the attributes faults expect (``systems``, ``network``, ``partitions``,
    ``pair``, ``fieldbuses``).  Each applied fault is recorded as a
    ``fault``/``inject`` record in the environment's ``trace``.
    """

    def __init__(self, kernel: SimKernel, env: Any) -> None:
        self.kernel = kernel
        self.env = env
        self.trace = env.trace

    def inject_now(self, fault: Fault) -> None:
        """Apply *fault* immediately."""
        self._apply(fault)

    def inject_at(self, at: float, fault: Fault) -> None:
        """Apply *fault* at absolute simulated time *at*."""
        self.kernel.schedule(max(0.0, at - self.kernel.now), self._apply, fault)

    def _apply(self, fault: Fault) -> None:
        self.trace.emit("fault", "injector", "inject", fault=fault.describe(), demo=fault.demo_id)
        fault.apply(self.env)
