"""Byte-compatibility gates for the trace fast paths.

The record fingerprint builds its wire payload from a template for
speed.  These tests pin the *bytes*: golden hex values that must never
drift, the fast payload checked against a reference
``json.dumps(as_wire())`` encoding, the log digest checked against a
reference hash of the record fingerprints, and ``first``/``count``
checked against a ``select()``-based reference.  A drift here silently breaks replay comparison across
versions, so every assertion is exact.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pickle

import pytest

from repro.simnet.trace import TraceLog, TraceRecord

# -- golden fingerprints ---------------------------------------------------
# Computed from the wire format contract (sorted keys, compact JSON,
# floats quantized to 9 decimal places, sha256 truncated to 16 hex
# chars).  If one of these changes, replay logs recorded by older
# versions stop matching — that is a breaking change, not a refactor.

GOLDEN_RECORDS = [
    (TraceRecord(0.0, "proc", "node-1", "start"), "b1a0cffdee031e24"),
    (
        TraceRecord(1.5, "net", "link-a", "deliver", {"seq": 7, "payload": "héllo", "ok": True}),
        "a1d4398e7c04b397",
    ),
    (
        TraceRecord(2.25, "proc", "node-2", "crash", {"reason": None, "load": 0.123456789, "neg": -0.0}),
        "8834d56dee262abe",
    ),
    (
        TraceRecord(3.0, "vote", "mgr", "round", {"nested": {"b": [1, 2.5], "a": "x"}, "nan": float("nan")}),
        "dd35d3faa74da954",
    ),
]


@pytest.mark.parametrize("record, expected", GOLDEN_RECORDS, ids=lambda v: v if isinstance(v, str) else v.event)
def test_golden_record_fingerprints(record, expected):
    assert record.fingerprint() == expected


def test_golden_log_fingerprint():
    log = TraceLog()
    log.emit("proc", "node-1", "start")
    log.emit("net", "link-a", "deliver", seq=7, payload="héllo", ok=True)
    log.emit("proc", "node-2", "crash", reason=None, load=0.123456789)
    assert log.fingerprint() == "9de5d07592c782fd"


# -- fast payload vs reference encoding ------------------------------------


def reference_fingerprint(record):
    payload = json.dumps(record.as_wire(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


AWKWARD_DETAILS = [
    {},
    {"plain": "ascii", "n": 3, "f": 0.5},
    {"unicode": "snow☃man", "quote": 'say "hi"', "back": "a\\b"},
    {"control": "tab\there\nnewline"},
    {"big": 10**30, "tiny": 1e-300, "negzero": -0.0},
    {"inf": math.inf, "ninf": -math.inf, "nan": math.nan},
    {"nested": {"z": [1, {"k": (1, 2)}], "a": None}},
    {"bool": True, "none": None, "mixed": [True, None, "s", 2.5]},
    {"quantize": 0.1234567894999, "exact": 1.0},
]


@pytest.mark.parametrize("detail", AWKWARD_DETAILS, ids=range(len(AWKWARD_DETAILS)))
def test_fast_fingerprint_matches_reference_encoding(detail):
    record = TraceRecord(1.25, "cat", "comp", "ev", dict(detail))
    assert record.fingerprint() == reference_fingerprint(record)


# -- log digest vs from-scratch reference ----------------------------------


def scratch_fingerprint(log):
    digest = hashlib.sha256()
    for record in log.records:
        digest.update(record.fingerprint().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def test_incremental_fingerprint_matches_scratch_across_interleavings():
    log = TraceLog()
    for round_no in range(5):
        for i in range(7):
            log.emit("cat", f"comp-{i % 2}", "ev", round=round_no, index=i)
        # a fingerprint taken mid-stream covers exactly the records so far
        assert log.fingerprint() == scratch_fingerprint(log)
    assert log.fingerprint() == scratch_fingerprint(log)


def test_fingerprint_of_empty_log_matches_scratch():
    log = TraceLog()
    assert log.fingerprint() == scratch_fingerprint(log)
    log.emit("cat", "comp", "ev")
    assert log.fingerprint() == scratch_fingerprint(log)


def test_fingerprint_stable_when_called_twice_without_new_emits():
    log = TraceLog()
    log.emit("cat", "comp", "ev", n=1)
    assert log.fingerprint() == log.fingerprint()


# -- pickle / deepcopy of fingerprinted logs -------------------------------


def test_pickle_round_trip_after_fingerprint():
    log = TraceLog()
    for i in range(10):
        log.emit("cat", "comp", "ev", index=i)
    before = log.fingerprint()
    clone = pickle.loads(pickle.dumps(log))
    assert clone.fingerprint() == before
    # both halves keep evolving identically
    log.emit("cat", "comp", "late")
    clone.emit("cat", "comp", "late")
    assert clone.fingerprint() == log.fingerprint()


def test_deepcopy_round_trip_after_fingerprint():
    log = TraceLog()
    log.emit("cat", "comp", "ev", value=1.5)
    before = log.fingerprint()
    clone = copy.deepcopy(log)
    assert clone.fingerprint() == before


# -- first/count vs select reference ---------------------------------------


def build_log(n=60):
    log = TraceLog()
    for i in range(n):
        log.emit(f"cat-{i % 3}", f"comp-{i % 4}", f"ev-{i % 5}", index=i)
    return log


FILTER_COMBOS = [
    {},
    {"category": "cat-1"},
    {"component": "comp-2"},
    {"event": "ev-3"},
    {"category": "cat-0", "component": "comp-0"},
    {"category": "cat-2", "event": "ev-2"},
    {"category": "cat-1", "component": "comp-3", "event": "ev-1"},
    {"since": 0.0, "until": 0.0},
    {"category": "no-such"},
]


@pytest.mark.parametrize("filters", FILTER_COMBOS, ids=range(len(FILTER_COMBOS)))
def test_first_last_count_match_select_reference(filters):
    log = build_log()
    selected = log.select(**filters)
    assert log.first(**filters) == (selected[0] if selected else None)
    assert log.count(**filters) == len(selected)


def test_first_last_on_empty_log():
    log = TraceLog()
    assert log.first() is None
    assert log.count() == 0
