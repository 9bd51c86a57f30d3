"""Guard: every record the library grows is read by code a run executes.

A counter bumped with ``+=``, or a list grown with ``append``, ``extend``
or ``appendleft``, costs time and memory on every event.  If no library
code, example or end-to-end workload reads it back, only tests do, and
it goes.  The check is by attribute name: any load of the name outside a
``__repr__`` counts as a read, except as the receiver of the growing
call itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GROWERS = ("append", "extend", "appendleft")


def _sources(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _grown_receiver(node):
    """The attribute ``x.attr`` that ``x.attr.append(...)`` grows, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GROWERS
        and isinstance(node.func.value, ast.Attribute)
    ):
        return node.func.value
    return None


def _grown_attributes():
    """Attribute name -> the ``src/repro`` sites that bump or grow it."""
    sites = {}
    for path, tree in _sources("src/repro"):
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and isinstance(node.target, ast.Attribute):
                target = node.target
            else:
                target = _grown_receiver(node)
            if target is not None:
                sites.setdefault(target.attr, []).append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno}")
    return sites


class _Reads(ast.NodeVisitor):
    """Collects every attribute name loaded outside a ``__repr__``."""

    def __init__(self):
        self.names = set()

    def visit_FunctionDef(self, node):
        if node.name != "__repr__":
            self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        receiver = _grown_receiver(node)
        if receiver is None:
            self.generic_visit(node)
            return
        # ``x.attr.append(v)`` reads ``x`` and ``v``, not ``attr``.
        self.visit(receiver.value)
        for argument in (*node.args, *node.keywords):
            self.visit(argument)


def test_every_grown_attribute_is_read_by_a_run():
    reads = _Reads()
    for _path, tree in _sources("src/repro", "examples", "e2ebench"):
        reads.visit(tree)
    grown = _grown_attributes()
    assert grown, "the scan found no bumped or grown attribute at all"
    unread = {name: sites for name, sites in sorted(grown.items()) if name not in reads.names}
    assert unread == {}
