"""Process address spaces and the checkpoint "memory walkthrough".

The paper checkpoints by copying "the address space (or the selected
subset) and the stack" of the application.  We model an address space as a
set of named :class:`MemoryRegion` objects — globals, heap allocations,
and one stack region per thread — each holding named variables.  The FTIM
walks these regions to capture a checkpoint.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import AccessViolation


GLOBAL = "global"
HEAP = "heap"
STACK = "stack"

_KINDS = (GLOBAL, HEAP, STACK)

#: Exact types that are immutable and therefore safe to share between a
#: region and its snapshot.  ``type()`` identity (not isinstance) keeps
#: the check cheap and conservative: a subclass falls back to deepcopy.
_IMMUTABLE_SCALARS = frozenset((str, int, float, bool, bytes, type(None)))


def copy_variables(data: Dict[str, Any], names: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Copy a variable dict (or just its *names*), equal to ``deepcopy``.

    Each variable is copied on its own, as cheaply as is safe:

    * an immutable scalar (exact type) is shared;
    * an exact ``dict``/``list`` whose keys and items are all immutable
      scalars (a histogram, a seen-list) gets a shallow ``dict()``/``list()``;
    * anything else goes through ``copy.deepcopy``.

    One deepcopy memo spans the call and the shallow copies are entered
    in it, so two variables aliasing one container still alias one copy,
    and no mutable object is shared between *data* and the result.  With
    *names*, the ones present in *data* are copied in sorted order;
    without, all of *data* in its own order.
    """
    scalars = _IMMUTABLE_SCALARS
    memo: Dict[int, Any] = {}
    copied: Dict[str, Any] = {}
    for name in data if names is None else sorted(name for name in names if name in data):
        value = data[name]
        kind = type(value)
        if kind in scalars:
            copied[name] = value
        elif (kind is list and scalars.issuperset(map(type, value))) or (
            kind is dict
            and scalars.issuperset(map(type, value))
            and scalars.issuperset(map(type, value.values()))
        ):
            twin = memo.get(id(value))
            if twin is None:
                twin = memo[id(value)] = kind(value)
            copied[name] = twin
        else:
            # Reviewed-benign HOT004: this *is* the slow path — a nested
            # or subclassed value has no immutable carrier to cache on,
            # and correctness requires the deep copy.
            copied[name] = copy.deepcopy(value, memo)  # oftt-lint: ok[hot-unmemoized-heavy]
    return copied


class MemoryRegion:
    """A named region of a process address space.

    Variables are stored by name; values must be plain picklable Python
    data.  Snapshots and restores copy them with :func:`copy_variables`,
    so a checkpoint never shares a mutable value with live memory.
    """

    def __init__(self, name: str, kind: str = GLOBAL) -> None:
        if kind not in _KINDS:
            raise AccessViolation(f"unknown region kind {kind!r}")
        self.name = name
        self.kind = kind
        self.protected = False
        self._data: Dict[str, Any] = {}

    def write(self, var: str, value: Any) -> None:
        """Store *value* under *var*; fails on protected regions."""
        if self.protected:
            raise AccessViolation(f"write to protected region {self.name}")
        self._data[var] = value

    def read(self, var: str) -> Any:
        """Read *var*; missing names are an access violation."""
        if var not in self._data:
            raise AccessViolation(f"read of unmapped {self.name}:{var}")
        return self._data[var]

    def delete(self, var: str) -> None:
        """Remove *var* from the region."""
        if self.protected:
            raise AccessViolation(f"write to protected region {self.name}")
        self._data.pop(var, None)

    def variables(self) -> List[str]:
        """Names stored in this region, sorted for determinism."""
        return sorted(self._data)

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Copy of the region's contents, or of just the *names* it holds
        (sorted); see :func:`copy_variables`."""
        return copy_variables(self._data, names)

    def restore(self, data: Dict[str, Any]) -> None:
        """Replace the region's contents with a copy of *data*."""
        self._data = copy_variables(data)

    def size_bytes(self) -> int:
        """Rough size estimate used for checkpoint cost modelling."""
        return _sum_sizes(self._data.values()) + 16 * len(self._data)

    def __contains__(self, var: str) -> bool:
        return var in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"MemoryRegion({self.name}, kind={self.kind}, vars={len(self._data)})"


class AddressSpace:
    """The full address space of an :class:`~repro.nt.process.NTProcess`."""

    def __init__(self, owner_name: str) -> None:
        self.owner_name = owner_name
        self._regions: Dict[str, MemoryRegion] = {}
        self.map_region("globals", GLOBAL)

    # -- region management -------------------------------------------------

    def map_region(self, name: str, kind: str = HEAP) -> MemoryRegion:
        """Create a region (error if the name already exists)."""
        if name in self._regions:
            raise AccessViolation(f"region {name} already mapped in {self.owner_name}")
        region = MemoryRegion(name, kind)
        self._regions[name] = region
        return region

    def unmap_region(self, name: str) -> None:
        """Destroy a region; subsequent access faults."""
        if name not in self._regions:
            raise AccessViolation(f"unmap of unknown region {name}")
        del self._regions[name]

    def region(self, name: str) -> MemoryRegion:
        """Fetch a region by name or fault."""
        if name not in self._regions:
            raise AccessViolation(f"no region {name} in {self.owner_name}")
        return self._regions[name]

    def has_region(self, name: str) -> bool:
        """Whether *name* is mapped."""
        return name in self._regions

    def regions(self, kind: Optional[str] = None) -> Iterator[MemoryRegion]:
        """Iterate regions (optionally of one kind), sorted by name."""
        for name in sorted(self._regions):
            region = self._regions[name]
            if kind is None or region.kind == kind:
                yield region

    # -- convenience global access ------------------------------------------

    @property
    def globals(self) -> MemoryRegion:
        """The process's global-variable region (always present)."""
        return self._regions["globals"]

    def write(self, var: str, value: Any, region: str = "globals") -> None:
        """Write a variable into *region* (default globals)."""
        self.region(region).write(var, value)

    def read(self, var: str, region: str = "globals") -> Any:
        """Read a variable from *region* (default globals)."""
        return self.region(region).read(var)

    # -- walkthrough ----------------------------------------------------------

    def walkthrough(self, kinds: Optional[List[str]] = None) -> Dict[str, Dict[str, Any]]:
        """The checkpoint "memory walkthrough": snapshot region contents.

        Parameters
        ----------
        kinds:
            Region kinds to include; defaults to all kinds.
        """
        wanted = set(kinds) if kinds is not None else set(_KINDS)
        return {
            region.name: region.snapshot()
            for region in self.regions()
            if region.kind in wanted
        }

    def restore_walkthrough(self, image: Dict[str, Dict[str, Any]]) -> None:
        """Load a walkthrough image, creating missing regions as heap."""
        for region_name, data in image.items():
            if not self.has_region(region_name):
                self.map_region(region_name, HEAP)
            self.region(region_name).restore(data)

    def size_bytes(self) -> int:
        """Estimated total footprint, for checkpoint cost modelling."""
        return sum(region.size_bytes() for region in self.regions())

    def __repr__(self) -> str:
        return f"AddressSpace({self.owner_name}, regions={sorted(self._regions)})"


#: Exact types :func:`estimate_size` prices at a flat 8 bytes.
_FIXED_SIZE = frozenset((int, float, bool, type(None)))


def estimate_size(value: Any) -> int:
    """Crude recursive size estimate for cost modelling (not accounting).

    Numbers and None cost 8, strings and bytes their length, containers
    16 plus their items (dict keys included), anything else 64.  Exact
    types are dispatched without ``isinstance``; subclasses take the
    general chain in :func:`_estimate_size_general` and price the same.
    """
    kind = type(value)
    if kind in _FIXED_SIZE:
        return 8
    if kind is str or kind is bytes:
        return len(value)
    if kind is dict:
        return 16 + _sum_sizes(value) + _sum_sizes(value.values())
    if kind is list or kind is tuple or kind is set:
        return 16 + _sum_sizes(value)
    return _estimate_size_general(value)


def _sum_sizes(items: Iterable[Any]) -> int:
    """:func:`estimate_size` summed over *items*, scalars priced inline."""
    fixed = _FIXED_SIZE
    total = 0
    for item in items:
        kind = type(item)
        if kind in fixed:
            total += 8
        elif kind is str or kind is bytes:
            total += len(item)
        else:
            total += estimate_size(item)
    return total


def _estimate_size_general(value: Any) -> int:
    """The ``isinstance`` chain behind :func:`estimate_size` (subclasses, others)."""
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, dict):
        return 16 + sum(estimate_size(k) + estimate_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set)):
        return 16 + sum(estimate_size(item) for item in value)
    return 64
