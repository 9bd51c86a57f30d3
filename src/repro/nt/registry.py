"""Per-node registry, in the spirit of HKEY_CLASSES_ROOT.

The COM runtime records CLSID registrations here
(``CLSID\\{...}\\InprocServer32`` style paths), and OFTT configuration is
stored under ``SOFTWARE\\SoHaR\\OFTT``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import NTError


class NTRegistry:
    """A hierarchical key/value store with backslash-separated paths."""

    def __init__(self) -> None:
        self._root: Dict[str, Any] = {}

    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [part for part in path.split("\\") if part]
        if not parts:
            raise NTError("empty registry path")
        return parts

    def _descend(self, parts: List[str], create: bool) -> Dict[str, Any]:
        node = self._root
        joined = "\\".join(parts)
        for part in parts:
            child = node.get(part)
            if not isinstance(child, dict):
                if not create:
                    raise NTError(f"registry key not found: {joined}")
                child = {}
                node[part] = child
            node = child
        return node

    def set_value(self, path: str, name: str, value: Any) -> None:
        """Set a named value under *path*, creating the key if needed."""
        key = self._descend(self._split(path), create=True)
        key[f"${name}"] = value

    def get_value(self, path: str, name: str, default: Any = None) -> Any:
        """Read a named value; *default* if the key or value is missing."""
        try:
            key = self._descend(self._split(path), create=False)
        except NTError:
            return default
        return key.get(f"${name}", default)

    def has_key(self, path: str) -> bool:
        """Whether *path* exists as a key."""
        try:
            self._descend(self._split(path), create=False)
            return True
        except NTError:
            return False

    def delete_key(self, path: str) -> None:
        """Remove a key and its subtree (error if missing)."""
        parts = self._split(path)
        parent = self._descend(parts[:-1], create=False) if len(parts) > 1 else self._root
        if parts[-1] not in parent:
            raise NTError(f"registry key not found: {path}")
        del parent[parts[-1]]

    def __repr__(self) -> str:
        return f"NTRegistry(top={sorted(self._root)})"
