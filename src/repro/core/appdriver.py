"""The contract between the OFTT engine and a protected application.

"The same copy of an application (either an OPC server, or an OPC client,
or both) resides on each node.  During normal operation, only the copy on
the primary node is executed" (§2.1).  The engine therefore needs a way
to *launch* the local copy (fresh, or from a checkpoint image after a
switchover or local restart) and to *stop* it.  Applications implement
:class:`OfttApplication`; the engine drives it.

:class:`NodeContext` bundles everything an application (and the engine)
needs on one node: the NT machine, COM runtime, queue manager, and the
shared trace/config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.core.config import OfttConfig
from repro.msq.manager import QueueManager
from repro.nt.process import NTProcess
from repro.nt.system import NTSystem
from repro.com.runtime import ComRuntime
from repro.simnet.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import OfttEngine


@dataclass
class NodeContext:
    """Everything installed on one node of the pair."""

    system: NTSystem
    runtime: ComRuntime
    qmgr: QueueManager
    config: OfttConfig
    trace: TraceLog
    engine: Optional["OfttEngine"] = None

    @property
    def kernel(self):
        """The simulation kernel (shared by everything)."""
        return self.system.kernel

    @property
    def node_name(self) -> str:
        """Network name of this node."""
        return self.system.node.name

    def __repr__(self) -> str:
        return f"NodeContext({self.node_name})"


class OfttApplication:
    """Base class for applications protected by OFTT.

    Subclasses implement :meth:`launch` — create the NT process, threads,
    construct the FTIM via :class:`~repro.core.api.OfttApi`, and (when
    *image* is not None) restore state from the checkpoint — and may
    override :meth:`stop` for orderly shutdown.

    One instance exists per *node*; the engine calls ``launch`` when the
    node becomes (or starts as) primary and ``stop`` when it must cease
    running (demotion, deliberate switchover).
    """

    #: Component name the engine monitors; subclasses usually override.
    name = "application"

    def __init__(self) -> None:
        self.context: Optional[NodeContext] = None
        self.process: Optional[NTProcess] = None
        self.launch_count = 0

    def install(self, context: NodeContext) -> None:
        """Bind this copy to its node (called by the pair builder)."""
        self.context = context

    # -- engine-driven lifecycle ------------------------------------------------

    def launch(self, image: Optional[Dict[str, Any]]) -> NTProcess:
        """Start the local copy; restore from *image* when provided.

        Must create the process, register with OFTT (``OFTTInitialize``),
        and return the :class:`NTProcess`.
        """
        raise NotImplementedError

    def stop(self) -> None:
        """Stop the local copy (default: kill the process)."""
        if self.process is not None and self.process.alive:
            self.process.kill()

    @property
    def running(self) -> bool:
        """Whether the local copy is currently alive."""
        return self.process is not None and self.process.alive

    def __repr__(self) -> str:
        where = self.context.node_name if self.context is not None else "uninstalled"
        return f"{type(self).__name__}({self.name} on {where}, running={self.running})"
