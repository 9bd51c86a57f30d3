"""Structured trace log for simulation runs.

Every layer appends :class:`TraceRecord` entries (timestamped, categorised,
keyed by component).  Tests and benchmarks query the trace to assert on
*sequences* of behaviour (e.g. "backup promoted exactly once, after the
heartbeat timeout elapsed") rather than only on final state.

Hot-path notes (this module is on the ``trace-emits`` bench path and a hot
root in ``repro/analysis/hotpath.manifest``): :class:`TraceRecord` is a
hand-written ``__slots__`` class because ~200k instances are allocated
per full bench run, and per-record fingerprints build their canonical
JSON payload directly (skipping the intermediate wire dict) via
module-bound serializer entry points.  :meth:`TraceLog.fingerprint`
hashes the whole log in one pass: a run's log is fingerprinted once,
when the run is checked.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Float quantization used by trace canonicalization (decimal places).
#: Sim times are millisecond-scale floats; 9 places is far below any
#: scheduling granularity while absorbing representation noise.
QUANTIZE_DECIMALS = 9

# Bound once at import: the fingerprint path runs per record and should
# not pay module-attribute lookups per call (HOT004/HOT006 dogfood).
_dumps = json.dumps
_sha256 = hashlib.sha256
_escape_json_string = json.encoder.encode_basestring_ascii
_COMPACT = (",", ":")
_INF = float("inf")
_NEG_INF = float("-inf")

#: Detail values that need no canonicalization beyond float quantization.
#: ``bool`` is listed explicitly because ``type()`` checks do not see
#: subclassing (unlike the isinstance chain in :func:`canonical_value`).
_PLAIN_SCALARS = (str, int, float, bool, type(None))


def quantize(value: float) -> float:
    """Quantize a float to the canonical trace precision."""
    rounded = round(value, QUANTIZE_DECIMALS)
    # Normalize -0.0 so signed zeros never diverge.
    return rounded + 0.0


def canonical_value(value: Any) -> Any:
    """Recursively canonicalize a detail value for comparison.

    Floats are quantized, dicts get sorted keys, sets become sorted
    lists, tuples become lists — so two semantically equal details
    serialize to identical JSON regardless of construction order.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return quantize(value)
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        # Reviewed-benign HOT004: set-valued details are rare (never on
        # the emit fast path) and the dump keys the sort, so there is no
        # stable carrier to memoize on.
        return sorted(json.dumps(canonical_value(v), sort_keys=True, default=str) for v in value)  # oftt-lint: ok[hot-unmemoized-heavy]
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    return repr(value)


def canonical_detail(detail: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical (sorted-key, quantized) form of a record's detail dict.

    Almost every detail emitted by the sim layers is a flat dict of
    scalars, so the common case skips the recursive
    :func:`canonical_value` walk entirely: exact-type scalars are kept
    as-is (floats quantized) under natural key sort.  Any non-scalar
    value or non-str key falls back to the general path, which produces
    the identical result for flat scalar dicts — the fast path is an
    optimization, never a semantic fork.
    """
    for key, value in detail.items():
        if type(key) is not str or type(value) not in _PLAIN_SCALARS:
            canonical = canonical_value(detail)
            assert isinstance(canonical, dict)
            return canonical
    out: Dict[str, Any] = {}
    for key in sorted(detail):
        value = detail[key]
        out[key] = quantize(value) if type(value) is float else value
    return out


def _json_number(value: float) -> str:
    """Render a quantized float exactly as ``json.dumps`` would.

    For finite floats ``json`` emits ``repr(value)``; the non-finite
    spellings (``NaN``/``Infinity``) are delegated to the real encoder.
    """
    if value != value or value == _INF or value == _NEG_INF:
        return _dumps(value)
    return repr(value)


class TraceRecord:
    """A single trace entry.

    Records are immutable once emitted (treat every field as read-only).
    ``as_wire()`` and ``fingerprint()`` compute their canonical forms on
    each call: replay diffing and log fingerprinting visit each record
    about once, so a per-record memo would cost two slots on every
    record and rarely be read.

    A hand-written ``__slots__`` class rather than a dataclass: the
    generated frozen-dataclass ``__init__`` routes every field through
    ``object.__setattr__`` and was a third of ``emit()``'s cost at
    ~200k records per bench run (HOT005 dogfood).
    """

    __slots__ = ("time", "category", "component", "event", "detail")

    def __init__(
        self,
        time: float,
        category: str,
        component: str,
        event: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.component = component
        self.event = event
        self.detail = {} if detail is None else detail

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.component == other.component
            and self.event == other.event
            and self.detail == other.detail
        )

    __hash__ = None  # type: ignore[assignment]  # detail dicts are unhashable anyway

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"component={self.component!r}, event={self.event!r}, detail={self.detail!r})"
        )

    def __str__(self) -> str:
        base = f"[{self.time:12.3f}] {self.category:<10} {self.component:<24} {self.event}"
        if not self.detail:
            return base
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{base} {extras}".rstrip()

    def as_wire(self) -> Dict[str, Any]:
        """Canonical serializable form (stable key order, quantized floats).

        This is the comparison unit used by ``repro.replay``: two records
        from different runs are "the same event" iff their wire forms are
        equal.
        """
        return {
            "time": quantize(self.time),
            "category": self.category,
            "component": self.component,
            "event": self.event,
            "detail": canonical_detail(self.detail),
        }

    def fingerprint(self) -> str:
        """Short stable hash of the wire form (for compact diffs).

        Byte-compatibility contract: the hashed payload is exactly
        ``json.dumps(self.as_wire(), sort_keys=True, separators=(",", ":"))``
        — the template below hard-codes the sorted key order of the five
        wire fields and reuses the stdlib string/number encoders, so the
        digest is identical to the pre-optimization full-dump path
        (pinned by ``tests/simnet/test_trace_fastpath.py`` golden
        fingerprints).
        """
        detail = self.detail
        payload = '{"category":%s,"component":%s,"detail":%s,"event":%s,"time":%s}' % (
            _escape_json_string(self.category),
            _escape_json_string(self.component),
            _dumps(canonical_detail(detail), sort_keys=True, separators=_COMPACT) if detail else "{}",
            _escape_json_string(self.event),
            _json_number(quantize(self.time)),
        )
        return _sha256(payload.encode("utf-8")).hexdigest()[:16]


class TraceLog:
    """Append-only log of :class:`TraceRecord` entries with query helpers.

    :meth:`select`, :meth:`first` and :meth:`count` share one predicate
    and scan :attr:`records` in emission order.  A run only emits: the
    experiments, the chaos and replay checks and the tests query or
    fingerprint its log once the run is over, so the log keeps no index
    or running digest for ``emit`` to maintain.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.records: List[TraceRecord] = []
        self._clock = clock

    def emit(self, category: str, component: str, event: str, **detail: Any) -> TraceRecord:
        """Append a record stamped with the current simulated time.

        Snapshot semantics: the ``**detail`` kwargs mechanism copies the
        *top level* of whatever mapping the caller splatted in, so later
        reassignment of the caller's keys cannot alter the record.
        Nested mutable values are held by reference and rendered lazily
        — callers must treat anything passed as detail as frozen from
        this point on (the sim layers only ever pass scalars and fresh
        containers).
        """
        time = self._clock() if self._clock is not None else 0.0
        record = TraceRecord(time, category, component, event, detail)
        self.records.append(record)
        return record

    # -- queries ---------------------------------------------------------

    def _matching(
        self,
        category: Optional[str],
        component: Optional[str],
        event: Optional[str],
        since: float,
        until: float,
    ) -> Iterator[TraceRecord]:
        """Records passing every given filter, in emission order."""
        for record in self.records:
            if (
                (category is None or record.category == category)
                and (component is None or record.component == component)
                and (event is None or record.event == event)
                and since <= record.time < until
            ):
                yield record

    def select(
        self,
        category: Optional[str] = None,
        component: Optional[str] = None,
        event: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[TraceRecord]:
        """Filter records by any combination of fields and a time window.

        The window is half-open ``[since, until)``: a record stamped
        exactly at *until* is excluded, so adjacent windows tile the
        timeline without double-counting.
        """
        return list(self._matching(category, component, event, since, until))

    def first(
        self,
        category: Optional[str] = None,
        component: Optional[str] = None,
        event: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> Optional[TraceRecord]:
        """First record matching :meth:`select` filters, or None.

        Stops at the first hit instead of building the ``select()`` list.
        """
        return next(self._matching(category, component, event, since, until), None)

    def count(
        self,
        category: Optional[str] = None,
        component: Optional[str] = None,
        event: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> int:
        """Number of records matching :meth:`select` filters."""
        return sum(1 for _record in self._matching(category, component, event, since, until))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of (the tail of) the trace."""
        records = self.records if limit is None else self.records[-limit:]
        return "\n".join(str(record) for record in records)

    def as_wire(self) -> List[Dict[str, Any]]:
        """Canonical serializable form of the whole log (see TraceRecord.as_wire)."""
        return [record.as_wire() for record in self.records]

    def fingerprint(self) -> str:
        """Stable hash over the canonical wire form of the full log.

        Two runs of the same scenario with the same seed should yield
        identical fingerprints; ``repro.replay`` uses this as the cheap
        equality check before computing an event-by-event diff.  The
        digest is sha256 over every record's :meth:`TraceRecord.fingerprint`,
        each followed by a newline, in emission order.
        """
        # Fed record by record, not joined first: a chaos run fingerprints
        # its log inside the run, where a joined payload adds to peak heap.
        digest = _sha256()
        update = digest.update
        for record in self.records:
            update(record.fingerprint().encode("ascii"))
            update(b"\n")
        return digest.hexdigest()[:16]
