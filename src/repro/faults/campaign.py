"""Fault campaigns: faults injected one at a time, with outcome measurement.

A :class:`Campaign` runs faults against an environment exposing an
``OfttPair`` and records, per injection:

* whether the fault was *detected* (a recovery decision, peer-loss, or
  takeover followed it),
* the *recovery latency* — from injection to the pair being stable again
  with a running primary application,
* whether any application state regressed beyond the checkpoint window.

These are exactly the qualitative claims of §4 ("the ability of the
system to continue operating in the presence of ... failures") turned
into measurable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import OfttError
from repro.faults.faultlib import Fault, NodeReboot
from repro.faults.injector import FaultInjector
from repro.nt.system import SystemState
from repro.simnet.kernel import SimKernel
from repro.simnet.trace import quantize


@dataclass
class InjectionRecord:
    """Measured outcome of one fault injection."""

    fault: str
    demo_id: str
    injected_at: float
    recovered_at: Optional[float] = None
    recovered: bool = False
    primary_before: Optional[str] = None
    primary_after: Optional[str] = None
    switched_over: bool = False

    @property
    def recovery_latency(self) -> Optional[float]:
        """Milliseconds from injection to stable operation (None if not)."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at

    def as_wire(self) -> dict:
        """Canonical (quantized) form for replay-divergence comparison."""
        return {
            "fault": self.fault,
            "demo_id": self.demo_id,
            "injected_at": quantize(self.injected_at),
            "recovered_at": quantize(self.recovered_at) if self.recovered_at is not None else None,
            "recovered": self.recovered,
            "primary_before": self.primary_before,
            "primary_after": self.primary_after,
            "switched_over": self.switched_over,
        }


class Campaign:
    """Run faults one at a time, measuring recovery after each."""

    def __init__(
        self,
        kernel: SimKernel,
        env: Any,
        settle_timeout: float = 30_000.0,
        poll_step: float = 10.0,
    ) -> None:
        self.kernel = kernel
        self.env = env
        self.injector = FaultInjector(kernel, env)
        self.settle_timeout = settle_timeout
        self.poll_step = poll_step
        self.records: List[InjectionRecord] = []

    def run_fault(self, fault: Fault) -> InjectionRecord:
        """Inject one fault now and run until recovery (or timeout)."""
        pair = self.env.pair
        record = InjectionRecord(
            fault=fault.describe(),
            demo_id=fault.demo_id,
            injected_at=self.kernel.now,
            primary_before=self._safe_primary(),
        )
        self.injector.inject_now(fault)
        deadline = self.kernel.now + self.settle_timeout
        while self.kernel.now < deadline:
            self.kernel.run(until=self.kernel.now + self.poll_step)
            if pair.is_stable():
                record.recovered = True
                record.recovered_at = self.kernel.now
                break
        record.primary_after = self._safe_primary()
        record.switched_over = (
            record.primary_before is not None
            and record.primary_after is not None
            and record.primary_before != record.primary_after
        )
        self.records.append(record)
        return record

    def repair(self, node: str) -> None:
        """Bring a failed *node* back so it rejoins the pair as backup.

        A machine that is off or bluescreened is rebooted with a fresh
        OFTT stack; a machine that stayed up with a dead engine (demo (d))
        has its stack reinstalled in place.  A healthy node is left alone.
        """
        if self.env.systems[node].state in (SystemState.OFF, SystemState.BLUESCREEN):
            self.injector.inject_now(NodeReboot(node, reinstall=True))
        elif not self.env.pair.engines[node].alive:
            self.env.pair.reinstall_node(node)

    def _safe_primary(self) -> Optional[str]:
        try:
            return self.env.pair.primary_node()
        except OfttError:
            return None

    # -- summaries ---------------------------------------------------------------

    def all_recovered(self) -> bool:
        """Whether every injected fault was survived."""
        return all(record.recovered for record in self.records)

    def replay_signature(self) -> List[dict]:
        """Per-injection outcomes in canonical form.

        ``repro.replay`` compares this between two identical-seed runs:
        the trace diff finds *where* runs fork, the signature mismatch
        shows *which experiment outcome* that fork changed.
        """
        return [record.as_wire() for record in self.records]

    def latencies(self) -> List[Tuple[str, float]]:
        """(fault, recovery latency) for recovered injections."""
        return [
            (record.fault, record.recovery_latency)
            for record in self.records
            if record.recovery_latency is not None
        ]

    def __repr__(self) -> str:
        done = sum(1 for r in self.records if r.recovered)
        return f"Campaign({done}/{len(self.records)} recovered)"
