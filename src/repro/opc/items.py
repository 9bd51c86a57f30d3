"""The OPC server address space: item definitions and current values."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ItemNotFound, OpcError
from repro.opc.types import OpcValue, Quality, canonical_vt

READ = "read"
WRITE = "write"
READ_WRITE = "read_write"

# Optional hook invoked when a client writes an item (device output path).
WriteHandler = Callable[[str, Any], None]


@dataclass
class ItemDef:
    """Static description of one OPC item."""

    item_id: str
    vt: str
    access: str = READ
    eu: str = ""
    description: str = ""

    def readable(self) -> bool:
        """Whether clients may read this item."""
        return self.access in (READ, READ_WRITE)

    def writable(self) -> bool:
        """Whether clients may write this item."""
        return self.access in (WRITE, READ_WRITE)


class ItemNamespace:
    """Item definitions plus their current cached values.

    Item ids are hierarchical with ``.`` separators (``plant.line1.temp``);
    :meth:`browse` walks that hierarchy the way ``IOPCBrowse`` would.
    """

    def __init__(self) -> None:
        self._defs: Dict[str, ItemDef] = {}
        self._values: Dict[str, OpcValue] = {}
        self._write_handlers: Dict[str, WriteHandler] = {}

    # -- definition -----------------------------------------------------------

    def define(self, item_def: ItemDef, initial: Optional[OpcValue] = None) -> None:
        """Add an item (error on duplicates)."""
        if item_def.item_id in self._defs:
            raise OpcError(f"item {item_def.item_id} already defined")
        self._defs[item_def.item_id] = item_def
        self._values[item_def.item_id] = initial or OpcValue(None, Quality.BAD_NOT_CONNECTED, 0.0)

    def define_simple(self, item_id: str, initial_value: Any, access: str = READ) -> ItemDef:
        """Shorthand: infer the VARIANT tag from *initial_value*."""
        item_def = ItemDef(item_id=item_id, vt=canonical_vt(initial_value), access=access)
        self.define(item_def, initial=OpcValue(initial_value, Quality.GOOD, 0.0))
        return item_def

    def on_write(self, item_id: str, handler: WriteHandler) -> None:
        """Install the device-output hook fired when clients write."""
        self.definition(item_id)  # validates existence
        self._write_handlers[item_id] = handler

    # -- access -----------------------------------------------------------------

    def definition(self, item_id: str) -> ItemDef:
        """The :class:`ItemDef`, or :class:`ItemNotFound`."""
        if item_id not in self._defs:
            raise ItemNotFound(f"no item {item_id}")
        return self._defs[item_id]

    def exists(self, item_id: str) -> bool:
        """Whether *item_id* is defined."""
        return item_id in self._defs

    def read(self, item_id: str) -> OpcValue:
        """Current cached value."""
        if item_id not in self._values:
            raise ItemNotFound(f"no item {item_id}")
        return self._values[item_id]

    def update(self, item_id: str, value: Any, quality: Quality, timestamp: float) -> OpcValue:
        """Device-side update of the cache (does not check access rights)."""
        if item_id not in self._defs:
            raise ItemNotFound(f"no item {item_id}")
        new_value = OpcValue(value, quality, timestamp)
        self._values[item_id] = new_value
        return new_value

    def client_write(self, item_id: str, value: Any) -> None:
        """Client-side write: checks access, fires the device hook."""
        item_def = self.definition(item_id)
        if not item_def.writable():
            raise OpcError(f"item {item_id} is not writable")
        handler = self._write_handlers.get(item_id)
        if handler is not None:
            handler(item_id, value)

    # -- browsing ----------------------------------------------------------------

    def item_ids(self) -> List[str]:
        """All item ids, sorted."""
        return sorted(self._defs)

    def browse(self, branch: str = "") -> List[str]:
        """Immediate children of *branch* in the dotted hierarchy.

        Leaves are returned as full item ids, inner nodes with a trailing
        ``.`` — callers recurse on those.
        """
        prefix = f"{branch}." if branch else ""
        children = set()
        for item_id in self._defs:
            if not item_id.startswith(prefix):
                continue
            rest = item_id[len(prefix):]
            head, sep, _tail = rest.partition(".")
            children.add(f"{prefix}{head}{'.' if sep else ''}")
        return sorted(children)

    def __len__(self) -> int:
        return len(self._defs)

    def __repr__(self) -> str:
        return f"ItemNamespace({len(self._defs)} items)"
