"""Pass 2 — COM contract checker (COM rules).

Cross-checks every :class:`repro.com.object.ComObject` subclass against
the :class:`repro.com.interfaces.InterfaceDecl`s it lists in
``IMPLEMENTS``.  The declarations are recovered statically from
``declare_interface(...)`` / ``InterfaceDecl(...)`` assignments anywhere
in the analysed tree, and class tables are resolved project-wide, so a
server class in ``repro.opc`` is checked against interfaces declared in
another module.

* COM001 ``com-missing-method``    — declared method with no implementation
* COM002 ``com-undeclared-method`` — public CamelCase (COM-style) method
  not covered by any declared interface: invisible to ``find_interface``
  yet reachable, so local and DCOM callers disagree on the contract
* COM003 ``com-unknown-interface`` — ``IMPLEMENTS`` names something that
  is not a resolvable ``InterfaceDecl``
* COM004 ``com-bare-raise``        — a declared COM method raises an
  exception type with no ``hresult``; it crosses the marshalling boundary
  in :mod:`repro.com.dcom` as an anonymous ``E_FAIL``
* COM005 ``com-iunknown-override`` — subclass re-implements
  ``QueryInterface``/``AddRef``/``Release``, subverting refcount discipline
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.program import Program
from repro.analysis.walker import SourceFile, dotted_name

MISSING_METHOD = rule(
    "COM001", "com-missing-method", Severity.ERROR, "com",
    "Class declares an interface but lacks one of its methods.",
)
UNDECLARED_METHOD = rule(
    "COM002", "com-undeclared-method", Severity.ERROR, "com",
    "CamelCase COM-style method is not part of any declared interface.",
)
UNKNOWN_INTERFACE = rule(
    "COM003", "com-unknown-interface", Severity.ERROR, "com",
    "IMPLEMENTS entry does not resolve to an InterfaceDecl.",
)
BARE_RAISE = rule(
    "COM004", "com-bare-raise", Severity.ERROR, "com",
    "COM method raises an exception without an hresult; callers see a bare E_FAIL.",
)
IUNKNOWN_OVERRIDE = rule(
    "COM005", "com-iunknown-override", Severity.ERROR, "com",
    "Subclass overrides QueryInterface/AddRef/Release.",
)

_IUNKNOWN_METHODS = ("QueryInterface", "AddRef", "Release")

#: Exception roots known to carry an hresult attribute (see repro.errors).
_HRESULT_ROOTS = {"ComError"}

#: Builtin exceptions provably lacking an hresult.  Classes outside the
#: analysed tree are skipped (a partial scan cannot prove anything about
#: them); the full-tree dogfood run sees every class and stays sound.
_BUILTIN_EXCEPTIONS = {
    "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
    "RuntimeError", "NotImplementedError", "AttributeError", "OSError",
    "IOError", "ArithmeticError", "ZeroDivisionError", "LookupError",
    "AssertionError", "StopIteration",
}


@dataclass
class _Interface:
    name: str  # variable name, e.g. IOPC_SERVER
    com_name: str  # declared name, e.g. IOPCServer
    methods: Tuple[str, ...]
    base: Optional[str]  # variable name of the base decl
    line: int

    def all_methods(self, table: Dict[str, "_Interface"]) -> Tuple[str, ...]:
        if self.base and self.base in table and self.base != self.name:
            return table[self.base].all_methods(table) + self.methods
        return self.methods


@dataclass
class _Class:
    name: str
    path: str
    line: int
    bases: Tuple[str, ...]
    implements: Optional[List[Tuple[str, int]]]  # (name, line); None = not assigned here
    implements_line: int
    implements_bad_shape: bool
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)


def _collect_interfaces(files: Sequence[SourceFile]) -> Dict[str, _Interface]:
    table: Dict[str, _Interface] = {}
    for source_file in files:
        if source_file.tree is None:
            continue
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
                continue
            callee = dotted_name(node.value.func)
            if callee is None:
                continue
            short = callee.split(".")[-1]
            if short not in ("declare_interface", "InterfaceDecl"):
                continue
            args = node.value.args
            keywords = {kw.arg: kw.value for kw in node.value.keywords}
            com_name_node = keywords.get("name", args[0] if args else None)
            methods_node = keywords.get("methods", args[1] if len(args) > 1 else None)
            if short == "InterfaceDecl":
                methods_node = keywords.get("methods", args[2] if len(args) > 2 else methods_node)
            base_node = keywords.get("base", args[2] if short == "declare_interface" and len(args) > 2 else None)
            com_name = com_name_node.value if isinstance(com_name_node, ast.Constant) else target.id
            methods: Tuple[str, ...] = ()
            if isinstance(methods_node, (ast.Tuple, ast.List)):
                methods = tuple(
                    element.value
                    for element in methods_node.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
            base = dotted_name(base_node).split(".")[-1] if base_node is not None and dotted_name(base_node) else None
            table[target.id] = _Interface(target.id, com_name, methods, base, node.lineno)
    return table


def _collect_classes(files: Sequence[SourceFile]) -> Dict[str, _Class]:
    classes: Dict[str, _Class] = {}
    for source_file in files:
        if source_file.tree is None:
            continue
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                name.split(".")[-1] for name in (dotted_name(base) for base in node.bases) if name
            )
            info = _Class(
                name=node.name,
                path=source_file.path,
                line=node.lineno,
                bases=bases,
                implements=None,
                implements_line=node.lineno,
                implements_bad_shape=False,
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[stmt.name] = stmt  # type: ignore[assignment]
                    for decorator in stmt.decorator_list:
                        if dotted_name(decorator) == "property":
                            info.properties.add(stmt.name)
                elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "IMPLEMENTS" for t in stmt.targets
                ):
                    info.implements_line = stmt.lineno
                    if isinstance(stmt.value, (ast.Tuple, ast.List)):
                        entries: List[Tuple[str, int]] = []
                        for element in stmt.value.elts:
                            name = dotted_name(element)
                            entries.append((name.split(".")[-1] if name else "<expr>", element.lineno))
                        info.implements = entries
                    else:
                        info.implements_bad_shape = True
                        info.implements = []
            # Last definition of a class name wins; names are unique in practice.
            classes[node.name] = info
    return classes


def _com_subclasses(classes: Dict[str, _Class]) -> Set[str]:
    """Names transitively deriving from ComObject (fixed point over bases)."""
    com: Set[str] = {"ComObject"}
    changed = True
    while changed:
        changed = False
        for info in classes.values():
            if info.name not in com and any(base in com for base in info.bases):
                com.add(info.name)
                changed = True
    com.discard("ComObject")
    return com


def _hresult_exceptions(classes: Dict[str, _Class]) -> Set[str]:
    """Exception class names that carry an hresult (statically known)."""
    carriers = set(_HRESULT_ROOTS)
    changed = True
    while changed:
        changed = False
        for info in classes.values():
            if info.name in carriers:
                continue
            if any(base in carriers for base in info.bases):
                carriers.add(info.name)
                changed = True
                continue
            init = info.methods.get("__init__")
            if init is not None:
                for node in ast.walk(init):
                    if isinstance(node, ast.Attribute) and node.attr == "hresult" and isinstance(node.ctx, ast.Store):
                        carriers.add(info.name)
                        changed = True
                        break
    return carriers


def _inherited_chain(info: _Class, classes: Dict[str, _Class]) -> List[_Class]:
    """*info* plus statically known ancestor classes (depth-first)."""
    chain: List[_Class] = []
    stack = [info.name]
    seen: Set[str] = set()
    while stack:
        name = stack.pop(0)
        if name in seen or name not in classes:
            continue
        seen.add(name)
        chain.append(classes[name])
        stack.extend(classes[name].bases)
    return chain


def _is_camel_case(name: str) -> bool:
    return bool(name) and name[0].isupper() and not name.isupper()


def run(program: Program) -> List[Finding]:
    """Pass entry point."""
    files = program.files
    findings: List[Finding] = []
    interfaces = _collect_interfaces(files)
    classes = _collect_classes(files)
    com_classes = _com_subclasses(classes)
    carriers = _hresult_exceptions(classes)

    for class_name in sorted(com_classes):
        info = classes[class_name]
        chain = _inherited_chain(info, classes)
        # IMPLEMENTS may live on an ancestor; nearest assignment wins.
        implements: List[Tuple[str, int]] = []
        bad_shape = False
        for member in chain:
            if member.implements is not None:
                implements = member.implements
                bad_shape = member.implements_bad_shape
                break
        if bad_shape and info.implements is not None:
            findings.append(
                Finding(UNKNOWN_INTERFACE, info.path, info.implements_line, 0,
                        f"{class_name}.IMPLEMENTS must be a tuple/list of InterfaceDecl names")
            )

        declared_methods: Set[str] = set()
        for decl_name, decl_line in implements:
            decl = interfaces.get(decl_name)
            if decl is None:
                if info.implements is not None:  # report where it is written
                    findings.append(
                        Finding(UNKNOWN_INTERFACE, info.path, decl_line, 0,
                                f"{class_name}.IMPLEMENTS references {decl_name!r}, not a known InterfaceDecl")
                    )
                continue
            declared_methods.update(decl.all_methods(interfaces))

        defined: Dict[str, Tuple[str, int]] = {}
        for member in reversed(chain):  # subclasses override ancestors
            for method_name, func in member.methods.items():
                defined[method_name] = (member.path, func.lineno)
        properties = set().union(*(member.properties for member in chain)) if chain else set()

        # COM001 — every declared method must exist somewhere on the chain.
        for method_name in sorted(declared_methods - set(_IUNKNOWN_METHODS)):
            if method_name not in defined:
                findings.append(
                    Finding(MISSING_METHOD, info.path, info.line, 0,
                            f"{class_name} declares {method_name} but does not implement it")
                )

        # COM002 — CamelCase publics must be declared (IUnknown comes free).
        # With a malformed IMPLEMENTS the declared set is unknowable; the
        # COM003 finding above is the actionable one, so skip the cascade.
        for method_name, func in sorted(info.methods.items() if not bad_shape else ()):
            if not _is_camel_case(method_name) or method_name in properties:
                continue
            if method_name in _IUNKNOWN_METHODS or method_name in declared_methods:
                continue
            findings.append(
                Finding(UNDECLARED_METHOD, info.path, func.lineno, func.col_offset,
                        f"{class_name}.{method_name} looks like a COM method but no declared interface lists it")
            )

        # COM004 — declared methods must raise hresult-carrying exceptions.
        for method_name, func in sorted(info.methods.items()):
            if method_name not in declared_methods:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                exc_name = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
                if exc_name is None:
                    continue  # re-raise of a bound variable: conservative skip
                short = exc_name.split(".")[-1]
                if short in carriers:
                    continue
                if short not in classes and short not in _BUILTIN_EXCEPTIONS:
                    continue  # class not in the analysed tree: cannot prove
                findings.append(
                    Finding(BARE_RAISE, info.path, node.lineno, node.col_offset,
                            f"{class_name}.{method_name} raises {short} which has no hresult; "
                            f"it will marshal as a bare E_FAIL")
                )

        # COM005 — IUnknown is the base class's business.
        for method_name in _IUNKNOWN_METHODS:
            func = info.methods.get(method_name)
            if func is not None:
                findings.append(
                    Finding(IUNKNOWN_OVERRIDE, info.path, func.lineno, func.col_offset,
                            f"{class_name} overrides {method_name}; refcount discipline belongs to ComObject")
                )
    return findings
