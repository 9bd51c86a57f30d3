"""Import Address Table simulation.

On real NT, every Win32 call a module makes goes through its IAT; patching
an IAT slot intercepts the call.  The paper uses exactly this trick
(§2.2.2): the handles of threads created dynamically with ``CreateThread``
cannot be discovered through the standard APIs, so OFTT patches the IAT to
observe the calls and record the handles itself.

Here, :class:`Kernel32` dispatches every API through the process's
:class:`ImportAddressTable`, so installed hooks see each call's arguments
and result.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.errors import NTError

# A hook receives (api_name, args_tuple, result) after the real API ran.
Hook = Callable[[str, Tuple[Any, ...], Any], None]


class ImportAddressTable:
    """Hookable dispatch table for Win32-like API calls."""

    def __init__(self) -> None:
        self._entries: Dict[str, Callable[..., Any]] = {}
        self._hooks: Dict[str, List[Hook]] = {}
        self.call_counts: Dict[str, int] = {}

    def register(self, api_name: str, implementation: Callable[..., Any]) -> None:
        """Bind the real implementation of *api_name*."""
        self._entries[api_name] = implementation

    def patch(self, api_name: str, hook: Hook) -> None:
        """Install *hook* on *api_name*; it runs after each real call."""
        if api_name not in self._entries:
            raise NTError(f"cannot patch unknown import {api_name}")
        self._hooks.setdefault(api_name, []).append(hook)

    def unpatch(self, api_name: str, hook: Hook) -> None:
        """Remove a previously installed hook (idempotent)."""
        hooks = self._hooks.get(api_name, [])
        if hook in hooks:
            hooks.remove(hook)

    def call(self, api_name: str, *args: Any) -> Any:
        """Invoke an API through the table, firing hooks."""
        implementation = self._entries.get(api_name)
        if implementation is None:
            raise NTError(f"call through unresolved import {api_name}")
        counts = self.call_counts
        counts[api_name] = counts.get(api_name, 0) + 1
        result = implementation(*args)
        hooks = self._hooks.get(api_name)
        if hooks:
            for hook in hooks:
                hook(api_name, args, result)
        return result

    def is_patched(self, api_name: str) -> bool:
        """Whether any hook is installed on *api_name*."""
        return bool(self._hooks.get(api_name))

    def imports(self) -> List[str]:
        """Registered API names, sorted."""
        return sorted(self._entries)

    def __repr__(self) -> str:
        patched = sorted(name for name in self._hooks if self._hooks[name])
        return f"ImportAddressTable(imports={len(self._entries)}, patched={patched})"
