"""Marshaling for ORPC calls.

Values crossing the wire are deep-copied (no shared state between nodes)
and restricted to plain data: primitives, strings, bytes, lists, tuples,
dicts, and :class:`ObjRef` — the marshaled form of an interface pointer.

Generating "the DCOM server object proxy and stub" is called out in §3.3
as a source of development friction and bugs; here the proxy/stub pair is
generated automatically from the interface declaration, and the marshaler
enforces the same what-can-cross-the-wire discipline MIDL would.

:func:`marshal` validates, copies and sizes a value in one walk.  Exact
scalars, lists, tuples and dicts are handled inline.  Three kinds of
subtree fall back to the general path:

* any other value: an ``ObjRef`` or ``GUID``, an ``IntEnum`` or ``str``
  subclass, an unsupported object;
* a container met a second time (an alias or a cycle), which is
  re-checked at its new depth;
* a container at the depth limit.

The general path is :func:`_check`, then a deep copy sharing the walk's
memo, then :func:`estimate_wire_size`.  Either way the result, or the
:class:`~repro.errors.ComError` raised, is the one that path would give
for the whole value.  Receipt copies with
:func:`~repro.nt.memory.copy_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.com.guids import GUID
from repro.com.hresult import E_FAIL
from repro.errors import ComError
from repro.nt.memory import copy_value


@dataclass(frozen=True)
class ObjRef:
    """A marshaled interface pointer: where the object lives and its id."""

    node: str
    oid: int
    iids: Tuple[GUID, ...]
    label: str = ""

    def supports(self, iid: GUID) -> bool:
        """Whether the exported object claimed *iid* at export time."""
        return iid in self.iids

    def __str__(self) -> str:
        return f"objref:{self.node}/{self.oid}({self.label})"


_SCALARS = (int, float, bool, str, bytes, type(None))

#: Deepest level :func:`_check` accepts; the root is level 0.
_MAX_DEPTH = 32


def _check(value: Any, depth: int = 0) -> None:
    if depth > _MAX_DEPTH:
        raise ComError(E_FAIL, "marshal: structure too deep")
    if isinstance(value, _SCALARS) or isinstance(value, (ObjRef, GUID)):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check(item, depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, (str, int)):
                raise ComError(E_FAIL, f"marshal: unsupported dict key type {type(key).__name__}")
            _check(item, depth + 1)
        return
    raise ComError(E_FAIL, f"marshal: unsupported type {type(value).__name__}")


#: :func:`estimate_wire_size` of the fixed-size exact scalar types.
_FIXED_WIRE_SIZE = {type(None): 4, bool: 4, int: 8, float: 8}


def marshal(value: Any) -> Tuple[Any, int]:
    """Validate, deep-copy and size *value* for transmission, in one walk.

    Returns ``(copy, wire_size)``: the copy is what ``copy.deepcopy``
    returns (same aliasing) and the size what :func:`estimate_wire_size`
    returns.  An invalid value raises the :class:`ComError` of
    :func:`_check`.
    """
    return _marshal(value, 0, {})


def _marshal(value: Any, depth: int, memo: Dict[int, Any]) -> Tuple[Any, int]:
    fixed = _FIXED_WIRE_SIZE
    kind = type(value)
    size = fixed.get(kind)
    if size is not None:
        return value, size
    if kind is str or kind is bytes:
        return value, 4 + len(value)
    # Below the limit an exact container's items are all checkable at
    # depth + 1; a container met again is re-checked at its new depth.
    if depth < _MAX_DEPTH and id(value) not in memo:
        if kind is list or kind is tuple:
            items: List[Any] = []
            if kind is list:
                memo[id(value)] = items
            append = items.append
            total = 8
            for item in value:
                item_kind = type(item)
                size = fixed.get(item_kind)
                if size is None:
                    if item_kind is str or item_kind is bytes:
                        size = 4 + len(item)
                    else:
                        item, size = _marshal(item, depth + 1, memo)
                append(item)
                total += size
            if kind is list:
                return items, total
            # Tuples as in deepcopy: shared unless an item was copied,
            # and memoized only then (after their items).
            twin = memo.get(id(value))
            if twin is None:
                twin = value
                for item, copied in zip(value, items):
                    if item is not copied:
                        twin = memo[id(value)] = tuple(items)
                        break
            return twin, total
        if kind is dict:
            twin = memo[id(value)] = {}
            total = 8
            for key, item in value.items():
                key_kind = type(key)
                if key_kind is str:
                    total += 4 + len(key)
                elif key_kind is int:
                    total += 8
                elif isinstance(key, (str, int)):
                    total += estimate_wire_size(key)
                else:
                    raise ComError(E_FAIL, f"marshal: unsupported dict key type {key_kind.__name__}")
                item_kind = type(item)
                size = fixed.get(item_kind)
                if size is None:
                    if item_kind is str or item_kind is bytes:
                        size = 4 + len(item)
                    else:
                        item, size = _marshal(item, depth + 1, memo)
                total += size
                if key_kind is not str and key_kind is not int:
                    # After its item, as deepcopy copies a key.
                    key = copy_value(key, memo)[0]
                twin[key] = item
            return twin, total
    # The general path, for values that are not plain data, containers
    # met again and containers at the depth limit.  copy_value hands a
    # non-plain value to copy.deepcopy with the walk's memo.
    _check(value, depth)
    return copy_value(value, memo)[0], estimate_wire_size(value)


def unmarshal_value(value: Any) -> Any:
    """Deep-copy *value* on receipt (equal to ``copy.deepcopy``)."""
    return copy_value(value, {})[0]


def estimate_wire_size(value: Any) -> int:
    """Approximate encoded size, used for network serialisation delay."""
    if value is None or isinstance(value, bool):
        return 4
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (GUID, ObjRef)):
        return 32
    if isinstance(value, (list, tuple)):
        return 8 + sum(estimate_wire_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(estimate_wire_size(k) + estimate_wire_size(v) for k, v in value.items())
    return 64
