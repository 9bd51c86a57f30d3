"""Dogfood gate: the in-repo scenarios and fault campaign replay cleanly.

These are the acceptance checks for the determinism sweep: every
registered subject — two-plus fault-free scenarios, the §4 fault
campaign, and the checkpoint round-trips — must report zero divergences.
"""

from __future__ import annotations

import pytest

from repro.replay.runner import ReplayResult, RoundTripResult
from repro.replay.subjects import SUBJECTS, run_subject


def test_registry_covers_scenarios_and_a_campaign():
    traces = [name for name, subject in SUBJECTS.items() if subject.kind == "trace"]
    roundtrips = [name for name, subject in SUBJECTS.items() if subject.kind == "roundtrip"]
    assert len(traces) >= 3  # >=2 plain scenarios + the fault campaign
    assert "demo-campaign" in traces
    assert len(roundtrips) >= 2


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_subject_is_replay_deterministic(name):
    result = run_subject(name, seed=0)
    if isinstance(result, ReplayResult):
        detail = result.divergence.render() if result.divergence else result.payload_mismatch
    else:
        assert isinstance(result, RoundTripResult)
        detail = result.mismatch
    assert result.ok, f"{name} diverged:\n{detail}"


def test_campaign_subject_compares_outcome_signatures():
    result = run_subject("demo-campaign", seed=1)
    assert isinstance(result, ReplayResult)
    assert result.ok, result.divergence.render() if result.divergence else result.payload_mismatch
    # The campaign ran all four §4 demos and produced real trace volume.
    assert result.events > 20
