"""The hot-path optimizations must be invisible: same results, same order.

Covers the trace select() filters, the record wire form and
fingerprints, the log fingerprint, and the kernel's lazy cancellation —
each checked against a brute-force equivalent or a repeated call.
"""

from __future__ import annotations

from repro.simnet.kernel import SimKernel
from repro.simnet.trace import TraceLog


def build_log(n: int = 60) -> TraceLog:
    log = TraceLog()
    for i in range(n):
        log.emit(f"cat-{i % 3}", f"comp-{i % 4}", f"ev-{i % 5}", index=i, value=i * 0.5)
    return log


# -- select() --------------------------------------------------------------


def brute_select(log, category=None, component=None, event=None, since=None, until=None):
    out = []
    for record in log.records:
        if category is not None and record.category != category:
            continue
        if component is not None and record.component != component:
            continue
        if event is not None and record.event != event:
            continue
        if since is not None and record.time < since:
            continue
        if until is not None and record.time >= until:
            continue
        out.append(record)
    return out


def test_select_matches_brute_force_for_every_filter_combo():
    log = build_log()
    combos = [
        {},
        {"category": "cat-1"},
        {"component": "comp-2"},
        {"event": "ev-3"},
        {"category": "cat-0", "component": "comp-0"},
        {"category": "cat-2", "event": "ev-4"},
        {"component": "comp-3", "event": "ev-1"},
        {"category": "cat-1", "component": "comp-1", "event": "ev-2"},
        {"category": "no-such"},
        {"component": "no-such"},
    ]
    for combo in combos:
        assert log.select(**combo) == brute_select(log, **combo), combo


def test_select_preserves_emit_order():
    log = build_log()
    picked = log.select(category="cat-1")
    assert [r.detail["index"] for r in picked] == sorted(r.detail["index"] for r in picked)


def test_index_tracks_post_select_emits():
    log = build_log(12)
    assert len(log.select(category="cat-0")) == 4
    log.emit("cat-0", "comp-9", "late")
    assert len(log.select(category="cat-0")) == 5
    assert log.select(category="cat-0")[-1].event == "late"


# -- record wire form and fingerprints -------------------------------------


def test_as_wire_is_cached_and_stable():
    log = build_log(5)
    record = log.records[0]
    first = record.as_wire()
    assert record.as_wire() == first


def test_fingerprint_cached_per_record_and_log():
    log = build_log(10)
    record = log.records[3]
    assert record.fingerprint() == record.fingerprint()
    cold = log.fingerprint()
    assert log.fingerprint() == cold
    log.emit("cat-9", "comp-9", "new")
    assert log.fingerprint() != cold  # new records must still change it


# -- kernel lazy cancellation ----------------------------------------------


def test_pending_is_exact_through_cancellations():
    kernel = SimKernel()
    calls = [kernel.schedule(float(i), lambda: None) for i in range(700)]
    assert kernel.pending == 700
    for call in calls[::2]:
        kernel.cancel(call)
    assert kernel.pending == 350
    kernel.cancel(calls[1])
    kernel.cancel(calls[1])  # idempotent: double cancel counts once
    assert kernel.pending == 349
    kernel.run()
    assert kernel.pending == 0


def test_cancel_after_run_is_harmless():
    kernel = SimKernel()
    call = kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.pending == 0
    kernel.cancel(call)  # already executed; must not corrupt the counter
    assert kernel.pending == 0
    kernel.schedule(1.0, lambda: None)
    assert kernel.pending == 1
