"""Fault Tolerance Interface Modules (FTIMs).

"Fault tolerance interface modules are responsible for checkpointing the
application state, monitoring the status of the application, and
communicating with the OFTT engine.  It is implemented as a client-side
COM server in the form of [a] DLL and is linked to an application ...  In
the OFTT design, the application and the FTIM run as two separate threads
within the same address space" (§2.2.2).

Two variants, as in the paper:

* :class:`ClientFtim` — for OPC clients (stateful): heartbeats **and**
  periodic/explicit checkpoints.
* :class:`ServerFtim` — for OPC servers (stateless): heartbeats only,
  avoiding checkpoint overhead.

Checkpoint capture follows the paper's mechanics: thread contexts come
from ``GetThreadContext`` — statically created threads via the standard
enumeration API, dynamically created ones via the IAT interception hook —
and the data image comes from the address-space memory walkthrough
(optionally restricted to ``OFTTSelSave``-designated variables).

The FTIM also watches the engine: if the engine process dies (§4 demo d,
middleware failure), the FTIM fail-stops its application so that the peer
node can take over without risking two primaries.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.com.interfaces import declare_interface
from repro.com.object import ComObject
from repro.errors import CheckpointError, OfttError
from repro.core.checkpoint import Checkpoint, image_size
from repro.core.status import ComponentKind
from repro.nt.kernel32 import Kernel32, ThreadHandle
from repro.nt.process import NTProcess
from repro.nt.thread import TERMINATED
from repro.simnet.events import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import OfttEngine

IFTIM = declare_interface("IOFTTFtim", ("Heartbeat", "TakeCheckpoint", "GetStats"))


class ServerFtim(ComObject):
    """The stateless FTIM variant: heartbeat thread only."""

    IMPLEMENTS = (IFTIM,)
    kind = ComponentKind.OPC_SERVER
    takes_checkpoints = False

    def __init__(self, engine: "OfttEngine", app_name: str, process: NTProcess) -> None:
        super().__init__()
        self.engine = engine
        self.app_name = app_name
        self.process = process
        self.kernel = process.system.kernel
        self.heartbeats_sent = 0
        self.engine_lost = False
        # create_thread starts the thread itself when the process runs;
        # on a not-yet-started process it runs at process.start().
        self._thread = process.create_thread(f"ftim:{app_name}", body=self._thread_body, dynamic=False)

    # -- the FTIM thread ---------------------------------------------------------

    def _thread_body(self, _thread):
        def loop():
            while True:
                self._periodic_work()
                yield Timeout(self.engine.config.heartbeat_period)

        return loop()

    def _periodic_work(self) -> None:
        if not self.engine.alive:
            self._on_engine_lost()
            return
        self.Heartbeat()

    def _on_engine_lost(self) -> None:
        """§4 demo (d): the middleware died under us.  Fail-stop the app so
        the peer can promote without a dual-primary risk."""
        if self.engine_lost:
            return
        self.engine_lost = True
        self.engine.context.trace.emit(
            "ftim", f"{self.process.system.node.name}/{self.app_name}", "engine-lost-failstop"
        )
        self.process.kill(code=-3)

    # -- COM surface ------------------------------------------------------------------

    def Heartbeat(self) -> None:
        """Send one heartbeat to the local engine."""
        self.heartbeats_sent += 1
        self.engine.heartbeat_from(self.app_name)

    def TakeCheckpoint(self) -> Optional[int]:
        """Stateless variant: nothing to capture."""
        return None

    def GetStats(self) -> dict:
        """FTIM statistics (exposed for the System Monitor)."""
        return {
            "app": self.app_name,
            "heartbeats": self.heartbeats_sent,
            "checkpoints": 0,
            "kind": "server",
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.app_name} on {self.process.system.node.name})"


class ClientFtim(ServerFtim):
    """The stateful FTIM variant: heartbeats plus checkpointing."""

    kind = ComponentKind.APPLICATION
    takes_checkpoints = True

    def __init__(
        self,
        engine: "OfttEngine",
        app_name: str,
        process: NTProcess,
        checkpoint_period: Optional[float] = None,
    ) -> None:
        super().__init__(engine, app_name, process)
        # Sequence numbers must keep climbing across relaunches of the
        # same application (CheckpointStore rejects stale sequences), so
        # a fresh FTIM resumes after whatever the engine already holds —
        # locally or mirrored from the peer.  A class-level counter would
        # satisfy monotonicity but leak across scenarios in one Python
        # process, making identical-seed runs emit different sequences.
        resume_from = max(
            engine.local_store.latest_sequence(app_name),
            engine.peer_store.latest_sequence(app_name),
        )
        self._sequence = itertools.count(resume_from + 1)
        # The replication strategy owns the checkpoint policy: period and
        # whether captures are incremental deltas (leader-follower's
        # per-update stream) or the paper's periodic full images.
        # The caller's request is kept so a runtime strategy switch can
        # re-derive the policy from the same inputs.
        self.requested_period = checkpoint_period
        self.checkpoint_period, policy_incremental = engine.strategy.checkpoint_policy(
            app_name, checkpoint_period
        )
        self.kernel32 = Kernel32(process)
        # The IAT trick: observe CreateThread so dynamically created
        # threads can be checkpointed too (§2.2.2, §3.1).
        self._dynamic_handles: List[ThreadHandle] = self.kernel32.install_thread_tracker()
        # OFTTSelSave designations: region -> sorted variable names (None
        # = all variables in that region), kept in region-name order.
        self._selected: Dict[str, Optional[List[str]]] = {}
        self.checkpoints_taken = 0
        self.capture_failures = 0
        self.last_sequence = 0
        self._last_image: Dict[str, Dict] = {}
        self.incremental = policy_incremental
        self._next_checkpoint_at = self.kernel.now + self.checkpoint_period

    # -- designation (OFTTSelSave) ----------------------------------------------------

    def select_variables(self, region: str, variables: Optional[List[str]] = None) -> None:
        """Designate checkpoint content: *variables* of *region*.

        ``variables=None`` selects the whole region.  Once anything is
        designated, captures are *selective* — only designated data is
        saved (the paper's user-directed checkpointing optimisation).
        """
        if variables is None:
            self._selected[region] = None
        else:
            existing = self._selected.get(region, [])
            if existing is not None:
                self._selected[region] = sorted(set(existing).union(variables))
        # Sorted like walkthrough(): every image — full or selective —
        # lists regions in name order, so serialized checkpoint bytes do
        # not depend on the order OFTTSelSave designations were made.
        self._selected = dict(sorted(self._selected.items()))

    def clear_selection(self) -> None:
        """Return to full-address-space captures."""
        self._selected.clear()

    def force_full_capture(self) -> None:
        """Make the next capture a full image (incremental re-base).

        Called when the peer reports it cannot merge our delta stream
        (``ckpt-resync``): its store lost the base — e.g. a node
        reinstall — so deltas are unusable until re-anchored.
        """
        self._last_image = {}

    def apply_checkpoint_policy(self, strategy) -> None:
        """Adopt a new strategy's checkpoint policy (runtime switch).

        Re-derives period and incremental mode from the original
        request, re-bases via :meth:`force_full_capture` (a delta taken
        under the new strategy must not reference a base the peer
        merged under the old one's rules), and re-anchors the periodic
        schedule so the first capture under the new policy happens one
        fresh period from now.
        """
        self.checkpoint_period, self.incremental = strategy.checkpoint_policy(
            self.app_name, self.requested_period
        )
        self.force_full_capture()
        self._next_checkpoint_at = self.kernel.now + self.checkpoint_period

    @property
    def selective(self) -> bool:
        """Whether OFTTSelSave designations are active."""
        return bool(self._selected)

    # -- periodic work ------------------------------------------------------------------

    def _periodic_work(self) -> None:
        if not self.engine.alive:
            self._on_engine_lost()
            return
        self.Heartbeat()
        if self.kernel.now >= self._next_checkpoint_at:
            self._next_checkpoint_at = self.kernel.now + self.checkpoint_period
            try:
                self.TakeCheckpoint()
            except CheckpointError:
                self.capture_failures += 1

    # -- capture ------------------------------------------------------------------------

    def TakeCheckpoint(self) -> Optional[int]:
        """Capture state now and hand it to the engine (OFTTSave path).

        Returns the checkpoint sequence number.
        """
        checkpoint = self.capture()
        self.engine.submit_checkpoint(checkpoint)
        self.checkpoints_taken += 1
        self.last_sequence = checkpoint.sequence
        return checkpoint.sequence

    def capture(self) -> Checkpoint:
        """Build a :class:`Checkpoint` from the live process.

        The copy that takes the image also prices it, so the checkpoint
        carries its size; an incremental delta sums the sizes of the
        variables it keeps.
        """
        if not self.process.alive:
            raise CheckpointError(f"capture on dead process {self.app_name}")
        full_image, sizes = self._capture_image()
        contexts = self._capture_contexts()
        is_incremental = self.incremental and bool(self._last_image)
        image = _image_delta(self._last_image, full_image) if is_incremental else full_image
        self._last_image = full_image
        # Positional: keyword binding into the generated __init__ costs
        # more than the frozen stores.  The fields, in declaration order:
        # app_name, sequence, captured_at, image, thread_contexts,
        # selective, incremental, image_bytes.
        return Checkpoint(
            self.app_name,
            next(self._sequence),
            self.kernel.now,
            image,
            contexts,
            self.selective,
            is_incremental,
            image_size(image, sizes),
        )

    def _capture_image(self) -> Tuple[Dict[str, Dict], Dict[str, Dict[str, int]]]:
        """The image and its per-variable sizes, region -> variable -> size."""
        space = self.process.address_space
        sizes: Dict[str, Dict[str, int]] = {}
        if not self.selective:
            return space.walkthrough(sizes=sizes), sizes
        image: Dict[str, Dict] = {}
        for region_name, variables in self._selected.items():
            if space.has_region(region_name):
                sizes[region_name] = region_sizes = {}
                image[region_name] = space.region(region_name).snapshot(variables, region_sizes)
        return image, sizes

    def _capture_contexts(self) -> Dict[str, Dict]:
        """Thread name -> context dict, static threads then tracked dynamic ones."""
        kernel32 = self.kernel32
        get_context = kernel32.GetThreadContext
        contexts: Dict[str, Dict] = {}
        for handle in kernel32.EnumProcessThreads():
            thread = handle.deref()
            contexts[thread.name] = get_context(handle).as_dict()
        for handle in self._dynamic_handles:
            thread = handle.deref()
            if thread.state is not TERMINATED:
                contexts[thread.name] = get_context(handle).as_dict()
        return contexts

    def GetStats(self) -> dict:
        """FTIM statistics (exposed for the System Monitor)."""
        return {
            "app": self.app_name,
            "heartbeats": self.heartbeats_sent,
            "checkpoints": self.checkpoints_taken,
            "capture_failures": self.capture_failures,
            "selective": self.selective,
            "kind": "client",
        }


def _image_delta(old: Dict[str, Dict], new: Dict[str, Dict]) -> Dict[str, Dict]:
    """Regions/variables in *new* that differ from *old* (incremental mode)."""
    delta: Dict[str, Dict] = {}
    for region, variables in new.items():
        old_region = old.get(region, {})
        changed = {var: value for var, value in variables.items() if old_region.get(var, _MISSING) != value}
        if changed or region not in old:
            delta[region] = changed
    return delta


class _Missing:
    """Sentinel distinguishing absent variables from None values."""


_MISSING = _Missing()
