"""Fault schedules: the unit of chaos a run executes and the minimizer shrinks.

A schedule is a seedable, serializable list of :class:`FaultEntry`
records — ``(at, kind, params)`` — rather than live
:class:`~repro.faults.faultlib.Fault` objects, so the same schedule can
be re-materialized against a fresh scenario for deterministic re-runs
(delta debugging) and round-tripped through the ``repro.chaos/v1``
report.

:class:`ScheduleGenerator` samples schedules from the fault catalogue:
every destructive entry is paired with its repair (reboot, heal, reset)
a bounded delay later, so a full schedule always returns the testbed to
a recoverable configuration — any invariant still violated after that is
a real finding, not an artifact of never repairing anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.errors import FaultInjectionError
from repro.faults import faultlib

#: kind -> builder(params) -> Fault.  Params are JSON-safe dicts.
FAULT_BUILDERS: Dict[str, Callable[[Dict[str, Any]], faultlib.Fault]] = {
    "node-failure": lambda p: faultlib.NodeFailure(p["node"]),
    "bluescreen": lambda p: faultlib.BlueScreen(p["node"]),
    "app-crash": lambda p: faultlib.AppCrash(p["node"], p["process"]),
    "sticky-app-crash": lambda p: faultlib.StickyAppCrash(
        p["node"], p["process"], duration=p.get("duration", 3_000.0)
    ),
    "app-hang": lambda p: faultlib.AppHang(p["node"], p["process"]),
    "middleware-crash": lambda p: faultlib.MiddlewareCrash(p["node"]),
    "node-reboot": lambda p: faultlib.NodeReboot(p["node"]),
    "reinstall-middleware": lambda p: faultlib.ReinstallMiddleware(p["node"]),
    "partition": lambda p: faultlib.NetworkPartition(p["side_a"], p["side_b"]),
    "asym-partition": lambda p: faultlib.AsymmetricPartition(p["sources"], p["dests"]),
    "heal-network": lambda p: faultlib.HealNetwork(),
    "link-down": lambda p: faultlib.LinkDown(p["link"]),
    "message-corruption": lambda p: faultlib.MessageCorruption(p["link"], p["probability"]),
    "message-duplication": lambda p: faultlib.MessageDuplication(p["link"], p["probability"]),
    "gray-node": lambda p: faultlib.GrayNode(p["node"], p["delay"]),
    "clock-skew": lambda p: faultlib.ClockSkew(p["node"], p["scale"]),
    "crash-during-checkpoint": lambda p: faultlib.CrashDuringCheckpoint(p["node"]),
}


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled injection: *kind* with *params*, applied at *at* ms."""

    at: float
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> faultlib.Fault:
        """Materialize the live fault object for this entry."""
        builder = FAULT_BUILDERS.get(self.kind)
        if builder is None:
            raise FaultInjectionError(f"unknown fault kind {self.kind!r}")
        return builder(self.params)

    def as_wire(self) -> Dict[str, Any]:
        """JSON-safe canonical form."""
        return {"at": round(self.at, 3), "kind": self.kind, "params": dict(sorted(self.params.items()))}

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "FaultEntry":
        """Inverse of :meth:`as_wire`."""
        return FaultEntry(at=float(data["at"]), kind=str(data["kind"]), params=dict(data.get("params", {})))


@dataclass
class ChaosSchedule:
    """An ordered fault sequence plus the horizon it plays out in."""

    entries: List[FaultEntry]
    horizon: float = 40_000.0

    def sorted_entries(self) -> List[FaultEntry]:
        """Entries in injection order (time, then kind for stable ties)."""
        return sorted(self.entries, key=lambda e: (e.at, e.kind))

    def subset(self, keep: List[int]) -> "ChaosSchedule":
        """Schedule containing only the entries at indices *keep*."""
        index_set = set(keep)
        return ChaosSchedule(
            entries=[e for i, e in enumerate(self.entries) if i in index_set],
            horizon=self.horizon,
        )

    def as_wire(self) -> Dict[str, Any]:
        """JSON-safe canonical form."""
        return {
            "horizon": round(self.horizon, 3),
            "entries": [entry.as_wire() for entry in self.sorted_entries()],
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "ChaosSchedule":
        """Inverse of :meth:`as_wire`."""
        return ChaosSchedule(
            entries=[FaultEntry.from_wire(e) for e in data.get("entries", [])],
            horizon=float(data.get("horizon", 40_000.0)),
        )

    def __len__(self) -> int:
        return len(self.entries)


# -- drifting fault-mix campaigns --------------------------------------------------
#
# Hand-built phased schedules for the adaptive-policy experiments: the
# fault *mix* changes over the run (crash-loops, then gray noise, then a
# partition, then a persistent fault), so a policy tuned for any single
# mix is wrong for part of the run.  Every destructive motif targets
# BOTH pair nodes symmetrically — which node holds PRIMARY mid-run
# differs between the policies under comparison, and an asymmetric
# schedule would grade them on placement luck rather than policy.

#: Length of one drift phase, ms.
DRIFT_PHASE_LENGTH = 8_000.0
#: Quiet lead-in before the first phase (role negotiation + settling).
DRIFT_LEAD_IN = 2_000.0
#: Recovery tail after the last phase.
DRIFT_TAIL = 10_000.0


def _both(at: float, kind: str, nodes: List[str], params: Dict[str, Any]) -> List[FaultEntry]:
    return [FaultEntry(at, kind, {"node": node, **params}) for node in nodes]


def _drift_crashy(at: float, nodes: List[str], process: str) -> List[FaultEntry]:
    """Crash-loop regime: alternating crashes and hangs, ~1.2s apart."""
    entries: List[FaultEntry] = []
    for offset, kind in (
        (500.0, "app-crash"),
        (1_800.0, "app-hang"),
        (3_000.0, "app-crash"),
        (4_200.0, "app-hang"),
        (5_400.0, "app-crash"),
        (6_600.0, "app-hang"),
    ):
        entries.extend(_both(at + offset, kind, nodes, {"process": process}))
    return entries


def _drift_gray(at: float, nodes: List[str], process: str) -> List[FaultEntry]:
    """Gray regime: egress-delay pulses ramping to a near-timeout delay.

    The small pulses (250–300ms) produce beat-to-beat gaps of 350–400ms:
    below the default peer timeout but above an aggressively tightened
    one, and exactly the latency-skew evidence the classifier keys on.
    The final 650ms step opens a one-off ~750ms gap that trips every
    miss-threshold-1 detector — only gray-aware tolerance rides it out.
    A hang lands mid-phase so hang-detection latency is paid *during*
    the gray noise, not in a quiet lab.
    """
    entries: List[FaultEntry] = []
    for offset, delay in (
        (500.0, 250.0),
        (1_000.0, 0.0),
        (1_500.0, 300.0),
        (2_000.0, 0.0),
        (4_500.0, 300.0),
        (5_000.0, 0.0),
        (5_500.0, 650.0),
        (6_500.0, 0.0),
    ):
        entries.extend(_both(at + offset, "gray-node", nodes, {"delay": delay}))
    entries.extend(_both(at + 2_500.0, "app-hang", nodes, {"process": process}))
    return entries


def _drift_partition(at: float, nodes: List[str], process: str) -> List[FaultEntry]:
    """Partition regime: the pair splits, then the app crashes 250ms in.

    The crash lands inside the stale-heartbeat window (the peer is gone
    but its watch has not timed out yet): an escalating policy demotes
    into the void and strands the unit primary-less until peer-loss
    promotion; staleness-aware deferral restarts locally instead.  The
    heal arrives inside the split-brain monitor's grace.
    """
    entries = [
        FaultEntry(at + 500.0, "partition", {"side_a": [nodes[0]], "side_b": [nodes[1]]}),
        FaultEntry(at + 2_500.0, "heal-network", {}),
    ]
    entries.extend(_both(at + 750.0, "app-crash", nodes, {"process": process}))
    return entries


def _drift_sticky(at: float, nodes: List[str], process: str) -> List[FaultEntry]:
    """Persistent-fault regime: a crash that re-kills every relaunch.

    Staggered and non-overlapping across the two nodes, so whichever
    node holds PRIMARY gets hit and the peer is healthy when it does —
    local-restart-only policies burn the whole fault duration, while
    escalating ones move the app out from under it.
    """
    return [
        FaultEntry(at + 500.0, "sticky-app-crash", {"node": nodes[0], "process": process, "duration": 2_000.0}),
        FaultEntry(at + 4_000.0, "sticky-app-crash", {"node": nodes[1], "process": process, "duration": 2_000.0}),
    ]


_DRIFT_PHASES: Dict[str, Callable[[float, List[str], str], List[FaultEntry]]] = {
    "crashy": _drift_crashy,
    "gray": _drift_gray,
    "partition": _drift_partition,
    "sticky": _drift_sticky,
}

#: profile name -> phase sequence.  "mixed" is the drifting mix the
#: adaptive-vs-static experiments gate on.
DRIFT_PROFILES: Dict[str, List[str]] = {
    "crashy": ["crashy"],
    "gray": ["gray"],
    "partition": ["partition"],
    "sticky": ["sticky"],
    "mixed": ["crashy", "gray", "partition", "sticky"],
}

#: Fault kinds in drift schedules that directly break the running
#: application or the pair (used for latency/false-positive attribution).
DRIFT_DESTRUCTIVE_KINDS = frozenset({"app-crash", "app-hang", "sticky-app-crash", "partition"})


def drift_schedule(profile: str, nodes: List[str], process: str) -> ChaosSchedule:
    """Build the deterministic drifting-mix schedule for *profile*."""
    phases = DRIFT_PROFILES.get(profile)
    if phases is None:
        raise FaultInjectionError(f"unknown drift profile {profile!r}; available: {sorted(DRIFT_PROFILES)}")
    entries: List[FaultEntry] = []
    at = DRIFT_LEAD_IN
    for phase in phases:
        entries.extend(_DRIFT_PHASES[phase](at, list(nodes), process))
        at += DRIFT_PHASE_LENGTH
    return ChaosSchedule(entries=entries, horizon=at + DRIFT_TAIL)


#: Fault templates the generator samples from, with relative weights.
#: Each template emits the destructive entry plus (optionally) its
#: paired repair entry; ``node`` iterates over the pair nodes and
#: ``link`` over the LAN segments of the target scenario.
_TEMPLATES: List[Any] = [
    # (weight, name) — dispatch happens in _emit below.
    (3, "app-crash"),
    (2, "app-hang"),
    (2, "middleware-crash"),
    (2, "bluescreen"),
    (2, "node-failure"),
    (2, "partition"),
    (2, "asym-partition"),
    (2, "message-corruption"),
    (2, "message-duplication"),
    (2, "gray-node"),
    (1, "clock-skew"),
    (1, "crash-during-checkpoint"),
]


#: Faults are injected in ``[WINDOW_START, WINDOW_START + WINDOW]`` (ms).
WINDOW_START = 2_000.0
WINDOW = 18_000.0
#: A destructive entry's repair lands up to this long after it (ms).
REPAIR_DELAY = 4_000.0
#: Chance that the next fault lands within ``BURST_GAP`` ms of the last.
BURST_PROB = 0.3
BURST_GAP = 500.0
#: Faults per schedule, inclusive bounds.
MIN_FAULTS = 2
MAX_FAULTS = 4


class ScheduleGenerator:
    """Samples randomized fault schedules for one testbed topology.

    All randomness comes from the seeded ``random.Random`` passed in, so
    (seed, index) fully determines each schedule.  Burst behaviour: with
    probability ``BURST_PROB`` the next fault lands within ``BURST_GAP``
    of the previous one (correlated failures); otherwise injection times
    are independent uniform draws over the fault window.
    """

    def __init__(self, nodes: List[str], links: List[str], process: str, rng: random.Random) -> None:
        self.nodes = list(nodes)
        self.links = list(links)
        self.process = process
        self.rng = rng

    def generate(self) -> ChaosSchedule:
        """Sample one schedule (advances the RNG)."""
        count = self.rng.randint(MIN_FAULTS, MAX_FAULTS)
        entries: List[FaultEntry] = []
        previous_at = WINDOW_START
        for _ in range(count):
            if entries and self.rng.random() < BURST_PROB:
                at = min(previous_at + self.rng.uniform(0.0, BURST_GAP), WINDOW_START + WINDOW)
            else:
                at = self.rng.uniform(WINDOW_START, WINDOW_START + WINDOW)
            at = round(at, 1)
            previous_at = at
            entries.extend(self._emit(at))
        # Settle budget: repairs land at most REPAIR_DELAY after the last
        # fault; leave a recovery tail beyond that before the horizon.
        last = max(entry.at for entry in entries)
        horizon = round(last + REPAIR_DELAY + 12_000.0, 1)
        return ChaosSchedule(entries=entries, horizon=horizon)

    # -- template emission -------------------------------------------------------

    def _emit(self, at: float) -> List[FaultEntry]:
        total = sum(weight for weight, _ in _TEMPLATES)
        pick = self.rng.uniform(0.0, total)
        cumulative = 0.0
        name = _TEMPLATES[-1][1]
        for weight, template in _TEMPLATES:
            cumulative += weight
            if pick <= cumulative:
                name = template
                break
        node = self.rng.choice(self.nodes)
        link = self.rng.choice(self.links)
        repair_at = round(at + self.rng.uniform(REPAIR_DELAY / 2.0, REPAIR_DELAY), 1)
        if name == "app-crash":
            return [FaultEntry(at, "app-crash", {"node": node, "process": self.process})]
        if name == "app-hang":
            return [FaultEntry(at, "app-hang", {"node": node, "process": self.process})]
        if name == "middleware-crash":
            return [
                FaultEntry(at, "middleware-crash", {"node": node}),
                FaultEntry(repair_at, "reinstall-middleware", {"node": node}),
            ]
        if name == "bluescreen":
            return [
                FaultEntry(at, "bluescreen", {"node": node}),
                FaultEntry(repair_at, "node-reboot", {"node": node}),
            ]
        if name == "node-failure":
            return [
                FaultEntry(at, "node-failure", {"node": node}),
                FaultEntry(repair_at, "node-reboot", {"node": node}),
            ]
        if name == "partition":
            side_a, side_b = [self.nodes[0]], [self.nodes[1]]
            return [
                FaultEntry(at, "partition", {"side_a": side_a, "side_b": side_b}),
                FaultEntry(repair_at, "heal-network", {}),
            ]
        if name == "asym-partition":
            source, dest = (self.nodes[0], self.nodes[1]) if self.rng.random() < 0.5 else (self.nodes[1], self.nodes[0])
            return [
                FaultEntry(at, "asym-partition", {"sources": [source], "dests": [dest]}),
                FaultEntry(repair_at, "heal-network", {}),
            ]
        if name == "message-corruption":
            probability = round(self.rng.uniform(0.05, 0.3), 3)
            return [
                FaultEntry(at, "message-corruption", {"link": link, "probability": probability}),
                FaultEntry(repair_at, "message-corruption", {"link": link, "probability": 0.0}),
            ]
        if name == "message-duplication":
            probability = round(self.rng.uniform(0.05, 0.3), 3)
            return [
                FaultEntry(at, "message-duplication", {"link": link, "probability": probability}),
                FaultEntry(repair_at, "message-duplication", {"link": link, "probability": 0.0}),
            ]
        if name == "gray-node":
            delay = round(self.rng.uniform(50.0, 350.0), 1)
            return [
                FaultEntry(at, "gray-node", {"node": node, "delay": delay}),
                FaultEntry(repair_at, "gray-node", {"node": node, "delay": 0.0}),
            ]
        if name == "clock-skew":
            scale = round(self.rng.uniform(1.1, 1.5), 3)
            return [
                FaultEntry(at, "clock-skew", {"node": node, "scale": scale}),
                FaultEntry(repair_at, "clock-skew", {"node": node, "scale": 1.0}),
            ]
        if name == "crash-during-checkpoint":
            return [
                FaultEntry(at, "crash-during-checkpoint", {"node": node}),
                FaultEntry(repair_at, "node-reboot", {"node": node}),
            ]
        raise FaultInjectionError(f"unknown template {name!r}")
