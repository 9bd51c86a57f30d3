"""Run-twice harness and checkpoint round-trip check.

:func:`run_twice_and_diff` is the core API: build-and-drive a scenario
twice from the same seed and report the first trace divergence.  The
factory is called twice with the *same* arguments; any state it shares
between calls (module globals, class attributes, closures over mutable
objects) is exactly the kind of bug this harness exists to find.

:func:`checkpoint_roundtrip` is the image-stability check: capture an
application, restore the image into a fresh launch, capture again, and
require the two images to serialize byte-identically (order-preserving
serialization — see ``canonical_image_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.checkpoint import canonical_image_bytes
from repro.core.status import ComponentStatus
from repro.replay.canonical import CanonicalEvent, canonicalize_trace
from repro.replay.diff import Divergence, first_divergence
from repro.simnet.trace import TraceLog

#: A factory that builds and drives one run, returning its TraceLog.
#: Extra comparable payload (experiment rows, campaign signatures) can be
#: returned as ``(trace, payload)``.
RunFactory = Callable[[int], Any]


@dataclass
class ReplayResult:
    """Outcome of one run-twice comparison."""

    subject: str
    seed: int
    events: int  #: canonical events in run 1
    events_second: int  #: canonical events in run 2
    fingerprint_first: str
    fingerprint_second: str
    divergence: Optional[Divergence] = None
    #: Mismatch between the runs' extra payloads (None when none or equal).
    payload_mismatch: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether the two runs were indistinguishable."""
        return self.divergence is None and self.payload_mismatch is None

    def as_wire(self) -> Dict[str, Any]:
        return {
            "kind": "replay",
            "subject": self.subject,
            "seed": self.seed,
            "ok": self.ok,
            "events": self.events,
            "events_second": self.events_second,
            "fingerprint_first": self.fingerprint_first,
            "fingerprint_second": self.fingerprint_second,
            "divergence": self.divergence.as_wire() if self.divergence is not None else None,
            "payload_mismatch": self.payload_mismatch,
        }


def _split(result: Any) -> tuple:
    """Normalize a factory result into (trace, payload)."""
    if isinstance(result, TraceLog):
        return result, None
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], TraceLog):
        return result
    raise TypeError(f"replay factory must return a TraceLog or (TraceLog, payload), got {type(result).__name__}")


def run_twice_and_diff(
    factory: RunFactory,
    seed: int = 0,
    subject: str = "",
) -> ReplayResult:
    """Run *factory* twice with *seed* and diff the canonical traces.

    The payloads (if the factory returns ``(trace, payload)``) are
    compared with plain equality after trace comparison — a payload
    mismatch with an identical trace usually means the nondeterminism
    lives in summary/aggregation code rather than the simulation.
    """
    trace_a, payload_a = _split(factory(seed))
    trace_b, payload_b = _split(factory(seed))
    events_a = canonicalize_trace(trace_a)
    events_b = canonicalize_trace(trace_b)
    divergence = first_divergence(events_a, events_b)
    payload_mismatch = None
    if divergence is None and payload_a != payload_b:
        payload_mismatch = {"first": payload_a, "second": payload_b}
    return ReplayResult(
        subject=subject,
        seed=seed,
        events=len(events_a),
        events_second=len(events_b),
        fingerprint_first=trace_a.fingerprint(),
        fingerprint_second=trace_b.fingerprint(),
        divergence=divergence,
        payload_mismatch=payload_mismatch,
    )


@dataclass
class RoundTripResult:
    """Outcome of one capture -> restore -> capture check."""

    subject: str
    seed: int
    app_name: str
    ok: bool
    image_bytes: int  #: size of the first canonical image
    regions: List[str] = field(default_factory=list)
    #: Human-readable description of the first difference (empty when ok).
    mismatch: str = ""

    def as_wire(self) -> Dict[str, Any]:
        return {
            "kind": "roundtrip",
            "subject": self.subject,
            "seed": self.seed,
            "app": self.app_name,
            "ok": self.ok,
            "image_bytes": self.image_bytes,
            "regions": self.regions,
            "mismatch": self.mismatch,
        }


def _describe_image_mismatch(first: Dict[str, Dict], second: Dict[str, Dict]) -> str:
    """Pinpoint the earliest structural difference between two images."""
    if list(first) != list(second):
        return f"region order/set differs: {list(first)} vs {list(second)}"
    for region in first:
        vars_a, vars_b = first[region], second[region]
        if list(vars_a) != list(vars_b):
            return f"variable order/set differs in region {region!r}: {list(vars_a)} vs {list(vars_b)}"
        for var in vars_a:
            if vars_a[var] != vars_b[var]:
                return f"value differs at {region}.{var}: {vars_a[var]!r} vs {vars_b[var]!r}"
    return "images serialize differently (value representation drift)"


def checkpoint_roundtrip(env: Any, app: Any, subject: str = "", seed: int = 0) -> RoundTripResult:
    """Capture *app*, restore the image into a fresh launch, capture again.

    The two images must serialize to identical bytes under the
    order-preserving serializer.  Thread contexts are deliberately NOT
    compared: a freshly launched process legitimately has different
    program counters; the restorable *state* is the image.

    The relaunch goes through the same status bookkeeping the engine's
    own ``_local_restart`` uses, so the stop is not misread as a failure.
    """
    engine = env.pair.engines[env.pair.primary_node()]
    ftim = app.api.ftim
    checkpoint_one = ftim.capture()
    image_one = checkpoint_one.image

    record = engine.components.get(app.name)
    if record is not None:
        record.status = ComponentStatus.RECOVERING
    engine.monitor.pause(app.name)
    app.stop()
    app.launch(image_one)
    if record is not None:
        record.status = ComponentStatus.RUNNING
    engine.monitor.resume(app.name)

    # No kernel advance between launch and capture: the captured state is
    # exactly what restore rebuilt, not what the app computed afterwards.
    checkpoint_two = app.api.ftim.capture()
    image_two = checkpoint_two.image

    bytes_one = canonical_image_bytes(image_one)
    bytes_two = canonical_image_bytes(image_two)
    ok = bytes_one == bytes_two
    return RoundTripResult(
        subject=subject,
        seed=seed,
        app_name=app.name,
        ok=ok,
        image_bytes=len(bytes_one),
        regions=list(image_one),
        mismatch="" if ok else _describe_image_mismatch(image_one, image_two),
    )
