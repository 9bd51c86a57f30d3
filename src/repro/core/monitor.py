"""The System Monitor (§2.2.4).

"The System Monitor displays the status of the components in a process
monitoring and control system including hardware, operating system, OFTT
components, and applications.  Although necessary for system test,
evaluation, and maintenance purposes, it does not need to be present for
the operation of the OFTT fault tolerance provisions."

It listens on the status port for the engines' periodic
:class:`~repro.core.status.StatusReport` streams and keeps the latest
state per (node, component), with a plain-text ``render()`` standing in
for the GUI.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.engine import STATUS_PORT
from repro.core.status import StatusReport
from repro.simnet.kernel import SimKernel
from repro.simnet.network import Message, NetNode


class SystemMonitor:
    """Status collector + display for one OFTT installation."""

    def __init__(self, kernel: SimKernel, node: NetNode) -> None:
        self.kernel = kernel
        self.node = node
        self.latest: Dict[Tuple[str, str], StatusReport] = {}
        self.reports_received = 0
        node.bind(STATUS_PORT, self._on_report)

    def _on_report(self, message: Message) -> None:
        report = StatusReport.from_wire(message.payload)
        self.reports_received += 1
        self.latest[(report.node, report.component)] = report

    # -- queries --------------------------------------------------------------------

    def current_primary(self) -> Optional[str]:
        """The node whose engine most recently reported PRIMARY."""
        best: Optional[StatusReport] = None
        for (node, component), report in self.latest.items():
            if component == "oftt-engine" and report.role == "primary":
                if best is None or report.time > best.time:
                    best = report
        return best.node if best is not None else None

    # -- display ---------------------------------------------------------------------

    def render(self) -> str:
        """Text rendering of the status table (the monitor's 'screen')."""
        lines = [f"=== OFTT System Monitor @ t={self.kernel.now:.0f}ms ==="]
        header = f"{'node':<14} {'component':<22} {'kind':<12} {'status':<12} {'role':<8} {'age(ms)':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for (node, component) in sorted(self.latest):
            report = self.latest[(node, component)]
            age = self.kernel.now - report.time
            lines.append(
                f"{node:<14} {component:<22} {report.kind.value:<12} "
                f"{report.status.value:<12} {report.role:<8} {age:>8.0f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SystemMonitor({self.node.name}, components={len(self.latest)}, reports={self.reports_received})"
