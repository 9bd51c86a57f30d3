"""Checkpoints: capture, serialization, storage.

The client FTIM captures "the address space (or the selected subset) and
the stack" plus thread contexts (§2.2.2).  A :class:`Checkpoint` is the
captured image; :class:`CheckpointStore` is the engine-side store — every
engine keeps its application's latest checkpoints both locally (for fast
local restart) and mirrored from the peer (for failover).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import CheckpointError
from repro.nt.memory import estimate_size


def canonical_image_bytes(image: Dict[str, Dict[str, Any]]) -> bytes:
    """Serialize a checkpoint image to bytes, *preserving* dict order.

    Deliberately NOT ``sort_keys=True``: capture paths promise to emit
    regions and variables in a stable (name-sorted) order, and the
    replay round-trip check compares these bytes to prove it.  Sorting
    here would mask exactly the reorder bugs the check exists to catch.
    """
    return json.dumps(image, default=repr, separators=(",", ":")).encode("utf-8")


def image_size(
    image: Dict[str, Dict[str, Any]], variable_sizes: Optional[Dict[str, Dict[str, int]]] = None
) -> int:
    """The image's share of :meth:`Checkpoint.size_bytes`: ``16 +
    estimate_size(region)`` per region.

    *variable_sizes* maps region -> variable -> size, as
    :func:`~repro.nt.memory.copy_variables` prices a capture; with it
    the sum is taken from those sizes (for the variables *image* holds,
    so a delta of the capture is priced too) instead of a walk.
    """
    if variable_sizes is None:
        return sum(16 + estimate_size(region) for region in image.values())
    total = 0
    for name, variables in image.items():
        # A region dict costs 16 beyond its variables, and its entry 16 more.
        total += 32 + sum(map(variable_sizes[name].__getitem__, variables))
    return total


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One captured application state image."""

    app_name: str
    sequence: int
    captured_at: float
    #: Memory walkthrough: region name -> {variable -> value}.
    image: Dict[str, Dict[str, Any]]
    #: Thread register contexts: thread name -> context dict.
    thread_contexts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: True when produced by ``OFTTSelSave`` designation (subset capture).
    selective: bool = False
    #: True when this is an incremental delta against the previous one.
    incremental: bool = False
    #: :func:`image_size` of *image* when the capture priced it while
    #: copying; None prices it on demand.
    image_bytes: Optional[int] = field(default=None, compare=False)

    def size_bytes(self) -> int:
        """Estimated payload size: a statistic, not a transfer cost.

        The engine ships every checkpoint as a fixed-size frame; this
        estimate feeds ``OfttEngine.checkpoint_sizes``, which the X1 and
        X7 experiments, the checkpoint-period ablation and the end-to-end
        benchmark read after the run.
        """
        image_bytes = self.image_bytes
        if image_bytes is None:
            image_bytes = image_size(self.image)
        return 64 + image_bytes + 32 * len(self.thread_contexts)

    def as_wire(self) -> dict:
        """Marshalable form for the engine-to-engine transfer."""
        return {
            "app_name": self.app_name,
            "sequence": self.sequence,
            "captured_at": self.captured_at,
            "image": self.image,
            "thread_contexts": self.thread_contexts,
            "selective": self.selective,
            "incremental": self.incremental,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Checkpoint":
        """Inverse of :meth:`as_wire` (fields passed positionally, in
        declaration order, as :meth:`ClientFtim.capture` does)."""
        return cls(
            data["app_name"],
            data["sequence"],
            data["captured_at"],
            data["image"],
            data["thread_contexts"],
            data["selective"],
            data["incremental"],
        )

    def merged_onto(self, base: Optional["Checkpoint"]) -> "Checkpoint":
        """Resolve an incremental checkpoint against *base*.

        Full checkpoints return themselves.  An incremental checkpoint
        overlays its regions/variables on the base image.
        """
        if not self.incremental:
            return self
        if base is None:
            raise CheckpointError(f"incremental checkpoint {self.sequence} for {self.app_name} has no base")
        merged_image: Dict[str, Dict[str, Any]] = {k: dict(v) for k, v in base.image.items()}
        for region, variables in self.image.items():
            merged_image.setdefault(region, {}).update(variables)
        # Re-sort by region name: FTIM captures list regions in name
        # order, but the overlay above appends delta-only regions at the
        # end, so without this a merged image would serialize differently
        # from the full capture it is equivalent to.
        merged_image = {region: merged_image[region] for region in sorted(merged_image)}
        merged_contexts = dict(base.thread_contexts)
        merged_contexts.update(self.thread_contexts)
        return Checkpoint(
            app_name=self.app_name,
            sequence=self.sequence,
            captured_at=self.captured_at,
            image=merged_image,
            thread_contexts=merged_contexts,
            selective=self.selective,
            incremental=False,
        )

    def __repr__(self) -> str:
        kind = "selective" if self.selective else "full"
        if self.incremental:
            kind += "+incremental"
        return f"Checkpoint({self.app_name} #{self.sequence}, {kind}, ~{self.size_bytes()}B)"


class CheckpointStore:
    """Bounded per-application checkpoint history.

    Incremental checkpoints are resolved against the stored latest at
    insertion time, so :meth:`latest` always returns a restorable full
    image.  Sequence numbers must be monotone per application; stale
    arrivals (switchover races, duplicated transfers) are rejected.
    """

    def __init__(self, history: int = 8) -> None:
        if history < 1:
            raise CheckpointError("history must be at least 1")
        self.history = history
        self._by_app: Dict[str, List[Checkpoint]] = {}

    def store(self, checkpoint: Checkpoint) -> bool:
        """Insert a checkpoint.  Returns False for stale sequences."""
        chain = self._by_app.setdefault(checkpoint.app_name, [])
        if chain and checkpoint.sequence <= chain[-1].sequence:
            return False
        resolved = checkpoint.merged_onto(chain[-1] if chain else None)
        chain.append(resolved)
        if len(chain) > self.history:
            del chain[: len(chain) - self.history]
        return True

    def latest(self, app_name: str) -> Optional[Checkpoint]:
        """Most recent full checkpoint for *app_name* (None if none)."""
        chain = self._by_app.get(app_name)
        return chain[-1] if chain else None

    def latest_sequence(self, app_name: str) -> int:
        """Highest stored sequence (0 when empty)."""
        latest = self.latest(app_name)
        return latest.sequence if latest is not None else 0

    def all_for(self, app_name: str) -> List[Checkpoint]:
        """The retained history, oldest first."""
        return list(self._by_app.get(app_name, []))

    def clear(self, app_name: Optional[str] = None) -> None:
        """Drop one app's chain, or everything."""
        if app_name is None:
            self._by_app.clear()
        else:
            self._by_app.pop(app_name, None)

    def __repr__(self) -> str:
        summary = {app: len(chain) for app, chain in sorted(self._by_app.items())}
        return f"CheckpointStore({summary})"
