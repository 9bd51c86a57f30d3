"""Fold a ``cProfile`` profile into per-layer self time and cross-layer calls.

A layer is a ``repro.<subpackage>``.  ``simnet`` and ``core`` carry most
of the time, so they are split by module; their modules that stay under
0.5% of traced self time on every workload fold into ``<pkg>.other``.
Files of this benchmark are the ``bench`` layer, and ``repro``'s
top-level modules are ``repro.other``.

Standard-library and builtin functions belong to no layer: their self
time is charged to the layer that called them.  A call chain through
several such functions, including a recursive one (``copy.deepcopy`` ->
``_deepcopy_dict`` -> ``copy.deepcopy``), is followed up to its nearest
layer caller, so ``deepcopy`` under ``nt.memory.copy_variables`` counts
as ``nt``.  The chain is followed per strongly connected component of
the non-layer call graph: a recursive group is charged the way it was
entered from outside, split by the cumulative time of each entering
edge.  Time with no layer anywhere above it is ``unattributed``.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

#: Modules of a split package that get a layer of their own.
SPLIT_MODULES = {
    "simnet": ("kernel", "network", "events", "trace"),
    "core": ("engine", "ftim", "checkpoint", "heartbeat", "roles", "monitor", "cluster"),
}

#: Subpackages that are one layer each.  The rest (``analysis``,
#: ``perf``, ``replay`` and the micro benches in ``repro.bench``) are on no
#: workload's path and fold into ``repro.other`` with the top-level modules.
PACKAGES = ("apps", "chaos", "com", "devices", "faults", "harness", "msq", "nt", "opc")

#: The benchmark's own driver code.
BENCH = "bench"
UNATTRIBUTED = "unattributed"

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = (
    *(f"simnet.{module}" for module in SPLIT_MODULES["simnet"]),
    "simnet.other",
    *(f"core.{module}" for module in SPLIT_MODULES["core"]),
    "core.other",
    *PACKAGES,
    "repro.other",
    BENCH,
)

BENCH_DIR = Path(__file__).resolve().parent

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to (None for stdlib and builtins)."""
    path = Path(filename)
    if path.parent == BENCH_DIR:
        return BENCH
    parts = path.parts
    for index in range(len(parts) - 2, 0, -1):
        if parts[index] == "repro" and parts[index - 1] == "src":
            break
    else:
        return None
    inner = parts[index + 1:]
    if len(inner) == 1:
        return "repro.other"
    package, module = inner[0], Path(inner[1]).stem
    if package in SPLIT_MODULES:
        return f"{package}.{module}" if module in SPLIT_MODULES[package] else f"{package}.other"
    if package in PACKAGES:
        return package
    return "repro.other"


class Fold:
    """Per-layer self seconds and cross-layer call counts of one or more profiles."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (caller layer, callee layer) -> calls that crossed from one to the other.
        self.calls: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Count name -> calls, for the functions :data:`COUNTED` names.
        self.ncalls: Dict[str, int] = defaultdict(int)

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def entries(self, layer: str) -> float:
        """Calls into *layer* from any other layer."""
        return sum(n for (src, dst), n in self.calls.items() if dst == layer and src != layer)

    def add(self, other: "Fold") -> None:
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds
        for edge, n in other.calls.items():
            self.calls[edge] += n
        for name, n in other.ncalls.items():
            self.ncalls[name] += n

    def as_wire(self) -> Dict[str, object]:
        return {
            "self_ms": {layer: round(s * 1e3, 3) for layer, s in sorted(self.self_s.items())},
            "calls": [
                {"from": src, "to": dst, "calls": round(n, 3)}
                for (src, dst), n in sorted(self.calls.items())
            ],
        }


#: Counts the fold takes from exact call counts of public functions,
#: given as (file suffix, function name).  ``simnet.kernel.cancelled``
#: counts ``cancel`` calls, stale handles included.
COUNTED = {
    "simnet.kernel.scheduled": (("simnet/kernel.py", "schedule"),),
    "simnet.kernel.cancelled": (("simnet/kernel.py", "cancel"),),
    "com.calls": (("com/dcom.py", "invoke"), ("com/dcom.py", "invoke_oneway")),
}


def _strongly_connected(nodes: List[Func], edges: Dict[Func, List[Func]]) -> Dict[Func, int]:
    """Tarjan's algorithm, iterative: function -> component number.

    A component is numbered only after every component reachable from it,
    so along the callee -> caller edges used here callers come first.
    """
    index: Dict[Func, int] = {}
    low: Dict[Func, int] = {}
    component: Dict[Func, int] = {}
    stack: List[Func] = []
    on_stack = set()
    counter = 0
    found = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = found
                    if member == node:
                        break
                found += 1
    return component


def _normalize(weights: Dict[Hashable, float]) -> Dict[Hashable, float]:
    total = sum(weights.values())
    return {key: w / total for key, w in weights.items()} if total > 0 else {}


def _edge_weights(callers: Dict[Hashable, tuple], slot: int) -> Dict[Hashable, float]:
    """Edge -> weight from one slot of cProfile's per-edge tuple, falling back to call counts."""
    weights = {caller: edge[slot] for caller, edge in callers.items()}
    if sum(weights.values()) <= 0:
        weights = {caller: float(edge[0]) for caller, edge in callers.items()}
    return weights


def fold(raw: Dict[Func, tuple]) -> Fold:
    """Fold one profile's ``stats`` dict (see the module docstring).

    *raw* maps each function to ``(cc, nc, tt, ct, callers)`` and each
    caller to ``(nc, cc, tt, ct)`` for that edge, as
    ``cProfile.Profile.create_stats`` leaves it.
    """
    layers = {func: layer_of(func[0]) for func in raw}
    foreign = [func for func, layer in layers.items() if layer is None]

    # Non-layer call graph, callee -> callers, so components come out
    # callers first and each one's attribution is ready when needed.
    up_edges = {
        func: [caller for caller in raw[func][4] if caller in raw and layers[caller] is None]
        for func in foreign
    }
    component = _strongly_connected(foreign, up_edges)
    members: Dict[int, List[Func]] = defaultdict(list)
    for func in foreign:
        members[component[func]].append(func)

    # Attribution of each component: how time under it splits over layers
    # (None = unattributed), from the edges entering it from outside.
    attribution: Dict[int, Dict[Optional[str], float]] = {}

    def source_mix(caller: Func) -> Dict[Optional[str], float]:
        layer = layers[caller]
        return {layer: 1.0} if layer is not None else attribution[component[caller]]

    for comp in sorted(members):
        mix: Dict[Optional[str], float] = defaultdict(float)
        entering = {}
        for func in members[comp]:
            for caller, edge in raw[func][4].items():
                if caller in raw and component.get(caller) != comp:
                    entering[(caller, func)] = edge
        if not entering:
            attribution[comp] = {None: 1.0}
            continue
        weights = _normalize(_edge_weights(entering, 3))
        for (caller, _func), share in weights.items():
            for layer, part in source_mix(caller).items():
                mix[layer] += share * part
        attribution[comp] = dict(mix)

    result = Fold()
    for func, (_cc, nc, tt, _ct, callers) in raw.items():
        layer = layers[func]
        if layer is not None:
            result.self_s[layer] += tt
            for caller, edge in callers.items():
                if caller not in raw:
                    continue
                for src, part in source_mix(caller).items():
                    if src is not None and src != layer:
                        result.calls[(src, layer)] += edge[0] * part
            for name, functions in COUNTED.items():
                if any(func[2] == funcname and func[0].endswith(suffix) for suffix, funcname in functions):
                    result.ncalls[name] += nc
            continue
        known = {caller: edge for caller, edge in callers.items() if caller in raw}
        if not known:
            result.self_s[UNATTRIBUTED] += tt
            continue
        for caller, share in _normalize(_edge_weights(known, 2)).items():
            for target, part in source_mix(caller).items():
                result.self_s[target if target is not None else UNATTRIBUTED] += tt * share * part
    return result
