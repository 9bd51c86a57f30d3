"""Named replay subjects: the things ``oftt-replay`` knows how to check.

Two kinds:

* **trace** subjects build and drive a harness scenario (optionally with
  a fault campaign) and are checked by running twice with the same seed
  and diffing the canonical traces (:func:`run_twice_and_diff`).
* **roundtrip** subjects warm a scenario, then require one application's
  checkpoint to survive capture -> restore -> capture byte-identically
  (:func:`checkpoint_roundtrip`).

Subjects are plain factories so the self-tests can reuse them, and the
registry is ordered (cheapest first) so ``--gate`` fails fast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from repro.apps.synthetic import SyntheticStateApp
from repro.chaos.cli import campaign_tasks
from repro.chaos.runner import ChaosRun
from repro.faults.campaign import Campaign
from repro.harness.scenario import (
    DEMO_FAULTS,
    ChaosScenario,
    build_demo,
    build_integrated,
    build_pair_env,
    build_remote_monitoring,
)
from repro.replay.runner import (
    ReplayResult,
    RoundTripResult,
    checkpoint_roundtrip,
    run_twice_and_diff,
)

CheckResult = Union[ReplayResult, RoundTripResult]

#: Default sim time a trace subject runs for (ms).
DEFAULT_DURATION = 30_000.0
#: Warm-up before a round-trip capture or a fault campaign (ms).
DEFAULT_WARMUP = 15_000.0


@dataclass(frozen=True)
class Subject:
    """One named determinism check."""

    name: str
    kind: str  #: "trace" or "roundtrip"
    description: str
    check: Callable[[int], CheckResult]  #: seed -> result


# -- trace subjects ---------------------------------------------------------


def _fault_free_trace(build):
    """Trace factory: the scenario *build* returns, run fault-free."""

    def factory(seed: int):
        scenario = build(seed=seed)
        scenario.start()
        scenario.run_for(DEFAULT_DURATION)
        return scenario.trace

    return factory


def _demo_campaign_trace(seed: int):
    """The §4 failure demos (a)-(d) as a replay subject.

    Returns ``(trace, campaign signature)`` so the checker gates on both
    the event stream and the per-injection outcomes.
    """
    scenario = build_demo(seed=seed)
    scenario.start()
    scenario.run_for(DEFAULT_WARMUP)
    campaign = Campaign(scenario.kernel, scenario, settle_timeout=30_000.0)
    for make_fault in DEMO_FAULTS:
        primary = scenario.pair.primary_node()
        campaign.run_fault(make_fault(primary))
        # Repair between demos so the next one starts from a healthy pair.
        campaign.repair(primary)
        scenario.run_for(5_000.0)
    return scenario.trace, campaign.replay_signature()


def _chaos_trace(seed: int):
    """One generated chaos schedule as a replay subject.

    Returns ``(trace, RunResult wire form)`` so the checker gates on the
    full event stream *and* the report payload (violations, stats) —
    the byte-identity the ``repro.chaos/v1`` JSON contract promises.
    """
    [(_, schedule, _)] = campaign_tasks(1, 1, seed)
    run = ChaosRun(seed=seed, schedule=schedule)
    result = run.execute()
    return run.scenario.trace, result.as_wire()


def _chaos_policy_trace(seed: int):
    """The mixed drifting fault-mix under the adaptive policy.

    The policy layer's whole decision loop — regime classification,
    backoff governor, detector tuning, runtime strategy switching —
    runs inside the simulation kernel, so it must be exactly as
    deterministic as everything else.  Same gate as ``chaos``: trace
    stream plus the ``RunResult`` wire payload, run twice and diffed.
    """
    from repro.chaos.schedule import drift_schedule
    from repro.core.config import OfttConfig, replace_config

    schedule = drift_schedule("mixed", list(ChaosScenario.PAIR_NODES), ChaosScenario.APP_NAME)
    config = replace_config(OfttConfig(), adaptive_policy=True)
    run = ChaosRun(seed=seed, schedule=schedule, config=config)
    result = run.execute()
    return run.scenario.trace, result.as_wire()


# -- subject factories -----------------------------------------------------


def _trace_subject(name: str, description: str, factory) -> Subject:
    def check(seed: int) -> ReplayResult:
        return run_twice_and_diff(factory, seed=seed, subject=name)

    return Subject(name=name, kind="trace", description=description, check=check)


def _roundtrip_subject(name: str, description: str, build) -> Subject:
    """Warm the scenario *build* returns, then round-trip its primary app."""

    def check(seed: int) -> RoundTripResult:
        scenario = build(seed=seed)
        scenario.start()
        scenario.run_for(DEFAULT_WARMUP)
        return checkpoint_roundtrip(scenario, scenario.primary_app(), subject=name, seed=seed)

    return Subject(name=name, kind="roundtrip", description=description, check=check)


def _synthetic_pair(mode: str):
    """Pair-environment builder running the synthetic app in *mode*."""
    return functools.partial(
        build_pair_env, app_factory=functools.partial(SyntheticStateApp, cold_kb=8, mode=mode)
    )


SUBJECTS: Dict[str, Subject] = {
    subject.name: subject
    for subject in [
        _trace_subject("demo", "Figure 3 Call Track testbed, fault-free run", _fault_free_trace(build_demo)),
        _trace_subject(
            "remote-monitoring", "Figure 1(a) SCADA pair over an OPC server", _fault_free_trace(build_remote_monitoring)
        ),
        _trace_subject("integrated", "Figure 1(b) integrated server+client pair", _fault_free_trace(build_integrated)),
        _trace_subject("demo-campaign", "§4 failure demos (a)-(d) with outcome signature", _demo_campaign_trace),
        _trace_subject("chaos", "one generated chaos schedule with monitors and report payload", _chaos_trace),
        _trace_subject("chaos-policy", "the mixed drift schedule under the adaptive recovery policy", _chaos_policy_trace),
        _roundtrip_subject(
            "roundtrip-scada", "SCADA checkpoint capture->restore->capture byte stability", build_remote_monitoring
        ),
        _roundtrip_subject(
            "roundtrip-calltrack", "Call Track checkpoint capture->restore->capture byte stability", build_demo
        ),
        _roundtrip_subject(
            "roundtrip-synthetic-full", "Synthetic app (full walkthrough) image byte stability", _synthetic_pair("full")
        ),
        _roundtrip_subject(
            "roundtrip-synthetic-selective",
            "Synthetic app (OFTTSelSave) image byte stability",
            _synthetic_pair("selective"),
        ),
    ]
}


def run_subject(name: str, seed: int = 0) -> CheckResult:
    """Run one named subject and return its result."""
    return SUBJECTS[name].check(seed)


def check_subject_task(task: Tuple[str, int]) -> CheckResult:
    """Executor entry point: one ``(subject_name, seed)`` task.

    Module-level (pickled by reference) so ``oftt-replay --jobs`` can fan
    subjects out over :func:`repro.perf.executor.parallel_map`; the
    worker resolves the name against its own freshly imported registry.
    """
    name, seed = task
    return SUBJECTS[name].check(seed)
