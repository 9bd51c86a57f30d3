"""Lazy rendering must be invisible.

The trace plane builds a record's wire form and fingerprint on first
ask, not at emit.  These tests pin that this never changes observable
results: golden fingerprints stay byte-identical whatever the emit/query
interleaving, and the snapshot semantics of ``emit(**detail)`` are
exactly documented — top level copied by kwargs splat, nested values by
reference.
"""

from __future__ import annotations

import pickle

from repro.simnet.trace import TraceLog, TraceRecord

# Golden values shared with test_trace_fastpath.py: laziness must not
# move these by a byte (they pin compatibility with recorded replays).
GOLDEN_START_FP = "b1a0cffdee031e24"
GOLDEN_LOG_FP = "9de5d07592c782fd"


def build_golden_log() -> TraceLog:
    log = TraceLog()
    log.emit("proc", "node-1", "start")
    log.emit("net", "link-a", "deliver", seq=7, payload="héllo", ok=True)
    log.emit("proc", "node-2", "crash", reason=None, load=0.123456789)
    return log


def test_golden_fingerprints_unchanged_by_lazy_paths():
    log = build_golden_log()
    assert log.records[0].fingerprint() == GOLDEN_START_FP
    assert log.fingerprint() == GOLDEN_LOG_FP


def test_fingerprint_identical_whatever_the_query_interleaving():
    eager, lazy = build_golden_log(), build_golden_log()
    # Eager: queried before it is fingerprinted.
    eager.select(category="proc")
    eager.first(component="link-a")
    eager.count(category="net")
    assert eager.fingerprint() == lazy.fingerprint() == GOLDEN_LOG_FP
    assert eager.select(category="proc") == lazy.select(category="proc")


def test_caller_held_detail_dict_mutation_does_not_alter_wire_form():
    """Snapshot semantics, part 1: the top level is copied at emit."""
    log = TraceLog()
    held = {"state": "primary", "epoch": 3}
    record = log.emit("role", "node-1", "decided", **held)
    held["state"] = "backup"  # caller reuses its dict after emitting
    held["extra"] = "late"
    wire = record.as_wire()  # rendered lazily, after the mutation
    assert wire["detail"] == {"epoch": 3, "state": "primary"}
    assert record.fingerprint() == TraceRecord(
        0.0, "role", "node-1", "decided", {"state": "primary", "epoch": 3}
    ).fingerprint()


def test_nested_detail_values_are_held_by_reference():
    """Snapshot semantics, part 2: nesting is NOT deep-copied.

    This is the documented contract (see TraceLog.emit): detail values
    must be treated as frozen once emitted.  The test pins the behaviour
    so the docs cannot silently drift from the implementation.
    """
    log = TraceLog()
    nested = {"queue": [1, 2]}
    record = log.emit("msq", "node-1", "depth", snapshot=nested)
    nested["queue"].append(3)  # contract violation by the caller...
    assert record.as_wire()["detail"]["snapshot"] == {"queue": [1, 2, 3]}  # ...is visible


def test_pickled_log_answers_like_the_original():
    log = build_golden_log()
    log.select(category="proc")
    log.fingerprint()
    clone = pickle.loads(pickle.dumps(log))
    assert clone.fingerprint() == log.fingerprint() == GOLDEN_LOG_FP
    assert clone.select(category="proc") == log.select(category="proc")
    assert clone.first(component="link-a") == log.first(component="link-a")
    assert clone.count(category="proc") == log.count(category="proc") == 2
