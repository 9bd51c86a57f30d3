"""Process address spaces and the checkpoint "memory walkthrough".

The paper checkpoints by copying "the address space (or the selected
subset) and the stack" of the application.  We model an address space as a
set of named :class:`MemoryRegion` objects — globals, heap allocations,
and one stack region per thread — each holding named variables.  The FTIM
walks these regions to capture a checkpoint.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import AccessViolation


GLOBAL = "global"
HEAP = "heap"
STACK = "stack"

_KINDS = (GLOBAL, HEAP, STACK)

#: Exact types :func:`estimate_size` prices at a flat 8 bytes, and exact
#: types it prices by their length.  Both are immutable and therefore
#: safe to share between a region and its snapshot.  ``type()`` identity
#: (not isinstance) keeps the check cheap and conservative: a subclass
#: falls back to deepcopy.
_FIXED_SIZE = frozenset((int, float, bool, type(None)))
_STRINGS = frozenset((str, bytes))

_MISSING = object()


def copy_value(value: Any, memo: Dict[int, Any]) -> Tuple[Any, int]:
    """Return ``(copy, size)`` from one walk: what ``copy.deepcopy(value,
    memo)`` returns and what :func:`estimate_size` returns for *value*.

    * An immutable scalar (exact type) is shared, and so is an exact
      ``tuple`` of numbers, None, ``str`` and ``bytes`` (a record: a
      trend point, an alarm entry), which ``deepcopy`` shares too and
      does not memoize.
    * An exact ``list`` or ``dict`` goes into *memo* before its items, as
      in ``deepcopy``, so aliases and cycles copy the same way.  One that
      holds only numbers and None (a dict: keyed by strings) is copied by
      a C-level slice or ``dict()`` and priced from its length; any other
      is copied and priced item by item, and a record among its items is
      priced in line and shared, without a recursive call.
    * Any other exact ``tuple`` is rebuilt (and memoized) only when one
      of its items copied to a new object; otherwise it is shared, as in
      ``deepcopy``.
    * Any other type goes to ``copy.deepcopy`` with the same *memo*, and
      to :func:`estimate_size`.

    A container met again keeps the copy it was given and is priced
    again, as :func:`estimate_size` prices every path to it, by a walk
    of its own.  A cycle back into a list or dict still being copied
    (its copy is shorter than it) has no finite estimate and costs 0.
    """
    fixed = _FIXED_SIZE
    kind = type(value)
    if kind in fixed:
        return value, 8
    if kind is str or kind is bytes:
        return value, len(value)
    twin = memo.get(id(value), _MISSING)
    if twin is not _MISSING:
        if (kind is list or kind is dict) and len(twin) != len(value):
            return twin, 0
        return twin, copy_value(value, {})[1]
    if kind is list:
        if fixed.issuperset(map(type, value)):
            twin = memo[id(value)] = value[:]
            return twin, 16 + 8 * len(value)
        twin = memo[id(value)] = []
        append = twin.append
        total = 16
        for item in value:
            item_kind = type(item)
            if item_kind in fixed:
                total += 8
            elif item_kind is str or item_kind is bytes:
                total += len(item)
            elif item_kind is tuple:
                # A record is priced in line and shared, as deepcopy shares it.
                size = 16
                for scalar in item:
                    scalar_kind = type(scalar)
                    if scalar_kind in fixed:
                        size += 8
                    elif scalar_kind is str or scalar_kind is bytes:
                        size += len(scalar)
                    else:
                        item, size = copy_value(item, memo)
                        break
                total += size
            else:
                item, size = copy_value(item, memo)
                total += size
            append(item)
        return twin, total
    if kind is dict:
        if fixed.issuperset(map(type, value.values())) and _STRINGS.issuperset(map(type, value)):
            twin = memo[id(value)] = dict(value)
            return twin, 16 + 8 * len(value) + sum(map(len, value))
        twin = memo[id(value)] = {}
        total = 16
        for key, item in value.items():
            # The item is copied before its key, as in deepcopy.
            item_kind = type(item)
            if item_kind in fixed:
                total += 8
            elif item_kind is str or item_kind is bytes:
                total += len(item)
            elif item_kind is tuple:
                # A record in line, as in the list loop above.
                size = 16
                for scalar in item:
                    scalar_kind = type(scalar)
                    if scalar_kind in fixed:
                        size += 8
                    elif scalar_kind is str or scalar_kind is bytes:
                        size += len(scalar)
                    else:
                        item, size = copy_value(item, memo)
                        break
                total += size
            else:
                item, size = copy_value(item, memo)
                total += size
            if type(key) is str:
                total += len(key)
            else:
                key, size = copy_value(key, memo)
                total += size
            twin[key] = item
        return twin, total
    if kind is tuple:
        items = []
        total = 16
        for item in value:
            item, size = copy_value(item, memo)
            items.append(item)
            total += size
        # A cycle back through this tuple may have copied it already.
        twin = memo.get(id(value), _MISSING)
        if twin is not _MISSING:
            return twin, total
        for item, copied in zip(value, items):
            if item is not copied:
                twin = memo[id(value)] = tuple(items)
                return twin, total
        return value, total
    # Reviewed-benign HOT004: this *is* the slow path — a subclass or
    # another type has no plain-data copy, and correctness requires the
    # deep copy (with the shared memo, so aliasing is kept).
    return copy.deepcopy(value, memo), estimate_size(value)  # oftt-lint: ok[hot-unmemoized-heavy]


def copy_variables(
    data: Dict[str, Any], names: Optional[Iterable[str]] = None, sizes: Optional[Dict[str, int]] = None
) -> Dict[str, Any]:
    """Copy a variable dict (or just its *names*), equal to ``deepcopy``.

    Each variable is copied by :func:`copy_value`, with one memo for the
    call, so two variables aliasing one container still alias one copy
    and no mutable object is shared between *data* and the result.  With
    *names*, the ones present in *data* are copied in sorted order;
    without, all of *data* in its own order.  With *sizes*, each copied
    variable's :func:`estimate_size` of name plus value is stored there
    under its name, so ``16 + sum(sizes.values())`` is the estimate of
    the copy.
    """
    fixed = _FIXED_SIZE
    memo: Dict[int, Any] = {}
    copied: Dict[str, Any] = {}
    for name in data if names is None else sorted(filter(data.__contains__, names)):
        value = data[name]
        kind = type(value)
        if kind in fixed:
            size = 8
        elif kind is str or kind is bytes:
            size = len(value)
        else:
            value, size = copy_value(value, memo)
        copied[name] = value
        if sizes is not None:
            sizes[name] = size + (len(name) if type(name) is str else estimate_size(name))
    return copied


class MemoryRegion:
    """A named region of a process address space.

    Variables are stored by name; values must be plain picklable Python
    data.  Snapshots copy them with :func:`copy_variables`, as
    applications do when they restore an image, so a checkpoint never
    shares a mutable value with live memory.
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
        try:
            return self._data[var]
        except KeyError:
            pass
        raise AccessViolation(f"read of unmapped {self.name}:{var}")

    def delete(self, var: str) -> None:
        """Remove *var* from the region."""
        if self.protected:
            raise AccessViolation(f"write to protected region {self.name}")
        self._data.pop(var, None)

    def variables(self) -> List[str]:
        """Names stored in this region, sorted for determinism."""
        return sorted(self._data)

    def snapshot(
        self, names: Optional[Iterable[str]] = None, sizes: Optional[Dict[str, int]] = None
    ) -> Dict[str, Any]:
        """Copy of the region's contents, or of just the *names* it holds
        (sorted), pricing each variable into *sizes* if given; see
        :func:`copy_variables`."""
        return copy_variables(self._data, names, sizes)

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

    def region(self, name: str) -> MemoryRegion:
        """Fetch a region by name or fault."""
        if name not in self._regions:
            raise AccessViolation(f"no region {name} in {self.owner_name}")
        return self._regions[name]

    def has_region(self, name: str) -> bool:
        """Whether *name* is mapped."""
        return name in self._regions

    def regions(self) -> Iterator[MemoryRegion]:
        """Iterate regions, sorted by name."""
        for name in sorted(self._regions):
            yield self._regions[name]

    # -- convenience global access ------------------------------------------

    @property
    def globals(self) -> MemoryRegion:
        """The process's global-variable region (always present)."""
        return self._regions["globals"]

    def write(self, var: str, value: Any, region: str = "globals") -> None:
        """Write a variable into *region* (default globals)."""
        target = self._regions.get(region)
        if target is None or target.protected:
            # Unmapped or protected: the checked path raises the AccessViolation.
            self.region(region).write(var, value)
        else:
            target._data[var] = value

    def read(self, var: str, region: str = "globals") -> Any:
        """Read a variable from *region* (default globals)."""
        try:
            return self._regions[region]._data[var]
        except KeyError:
            pass
        # Unmapped region or variable: the checked path raises the AccessViolation.
        return self.region(region).read(var)

    # -- walkthrough ----------------------------------------------------------

    def walkthrough(
        self, kinds: Optional[List[str]] = None, sizes: Optional[Dict[str, Dict[str, int]]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """The checkpoint "memory walkthrough": snapshot region contents.

        Parameters
        ----------
        kinds:
            Region kinds to include; defaults to all kinds.
        sizes:
            If given, each included region's per-variable sizes (see
            :func:`copy_variables`) are stored there under its name.
        """
        wanted = set(kinds) if kinds is not None else set(_KINDS)
        image: Dict[str, Dict[str, Any]] = {}
        for region in self.regions():
            if region.kind in wanted:
                region_sizes = None if sizes is None else sizes.setdefault(region.name, {})
                image[region.name] = region.snapshot(sizes=region_sizes)
        return image

    def __repr__(self) -> str:
        return f"AddressSpace({self.owner_name}, regions={sorted(self._regions)})"


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
