"""Run every experiment in the DESIGN.md index and print its table.

This is how EXPERIMENTS.md's "measured" columns are produced::

    python -m repro.harness.run_experiments            # everything
    python -m repro.harness.run_experiments X1 X3      # a subset

``--replay-check`` runs each selected experiment **twice** and compares
the canonicalized result payloads — the experiment-level counterpart of
``oftt-replay``'s trace-level diff.  A mismatch means the experiment's
published numbers are not reproducible from its seed::

    python -m repro.harness.run_experiments --replay-check X2 X5

``--jobs N`` fans independent experiments out over a process pool;
tables are printed in the requested order either way, so the output is
byte-identical for any worker count::

    python -m repro.harness.run_experiments --jobs 4
"""

from __future__ import annotations

import argparse

# oftt-lint: file-ok[ambient-io] -- the experiment runner is the host-side CLI.
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import experiments as E
from repro.harness.reporting import format_result
from repro.perf.executor import add_jobs_argument, parallel_map
from repro.simnet.trace import canonical_value

#: The one definition of every experiment: id -> (title, runner).  The
#: tier-1 test ``tests/integration/test_experiments.py`` runs each id
#: once and checks its golden digest and its paper claim.
EXPERIMENTS: Dict[str, Tuple[str, Callable[[], Any]]] = {
    "F1": ("F1a/F1b: reference configurations under node failure", lambda: E.exp_reference_configs(seed=3)),
    "F2": ("F2: Figure 2 architecture — live component counters", lambda: E.exp_architecture(seed=7)),
    "F3": ("F3/T1: Table 1 software configuration, verified live", lambda: E.exp_demo_config(seed=9)),
    "D": ("D-a..d: §4 failure demonstrations (Figure 3 testbed)", lambda: E.exp_failover_demos(seed=5)),
    "X1": ("X1: checkpoint bytes by capture mode and state size", lambda: E.exp_checkpoint_cost(seed=11)),
    "X2": ("X2: hang-detection latency vs heartbeat period/timeout", lambda: E.exp_detection_latency(seed=13)),
    "X3": ("X3: false-shutdown rate vs startup retry budget", lambda: E.exp_startup(seeds=list(range(25)))),
    "X4": ("X4: events lost across switchover, diverter vs naive", lambda: E.exp_diverter(seeds=[0, 1, 2, 3, 4])),
    "X5": ("X5: transient app crash under each recovery rule", lambda: E.exp_recovery_rules(seed=17)),
    "X6": ("X6: time for a client to learn its server died", lambda: E.exp_dcom(seed=19)),
    "X7": ("X7: integration level vs checkpoint cost and staleness", lambda: E.exp_api_levels(seed=23)),
    "A1": ("A1: NIC failure with single vs dual Ethernet", lambda: E.exp_ablation_dual_lan(seed=51)),
    "A2": ("A2: false takeovers vs heartbeat timeout on lossy links", lambda: E.exp_ablation_heartbeat_loss(seed=53)),
    "A3": ("A3: checkpoint period vs traffic vs staleness bound", lambda: E.exp_ablation_checkpoint_period(seed=55)),
    "A4": ("A4: availability over 12 mixed §4 faults with repairs", lambda: E.exp_availability(seed=71, rounds=3)),
    "BL": ("BL: monitoring blackout across a station power-off (F1a)", lambda: E.exp_scada_blackout(seed=9)),
    "S1": ("S1: detector sensitivity, miss threshold x heartbeat timeout", lambda: E.exp_detector_sweep(seeds=4, schedules=3)),
    "S2": ("S2: replication strategies under primary and total pair loss", lambda: E.exp_strategy_comparison(seeds=3)),
    "S3": ("S3: adaptive recovery policy vs static rules, drifting faults", lambda: E.exp_policy_comparison(seeds=3)),
}


def run_experiment_task(experiment_id: str) -> Any:
    """Executor entry point: run one experiment by id.

    Module-level (pickled by reference) so ``--jobs`` workers can resolve
    the id against their own freshly imported registry — the lambdas in
    ``EXPERIMENTS`` never cross a process boundary.
    """
    _, runner = EXPERIMENTS[experiment_id]
    return runner()


def run(ids: List[str], jobs: int = 1) -> None:
    """Run the selected experiments, printing each result table.

    Results are printed in the requested id order after all runs finish,
    so the output bytes do not depend on *jobs*.
    """
    results = parallel_map(run_experiment_task, ids, jobs=jobs)
    for experiment_id, result in zip(ids, results):
        title, _ = EXPERIMENTS[experiment_id]
        print()
        print(format_result(title, result))


def replay_check_experiment(experiment_id: str) -> Tuple[bool, Any, Any]:
    """Run one experiment twice; return (match, first, second) canonical payloads.

    Canonicalization reuses the trace policy (:func:`canonical_value`):
    sorted dict keys and quantized floats, so a reorder or a sub-ULP
    float wobble does not count as a divergence but any real numeric or
    structural change does.
    """
    _, runner = EXPERIMENTS[experiment_id]
    first = canonical_value(runner())
    second = canonical_value(runner())
    return first == second, first, second


def replay_check(ids: List[str], jobs: int = 1) -> int:
    """Run each experiment twice and report reproducibility; exit-style int."""
    failures = 0
    checks = parallel_map(replay_check_experiment, ids, jobs=jobs)
    for experiment_id, (match, first, second) in zip(ids, checks):
        if match:
            print(f"[ok] {experiment_id}: two runs agree")
            continue
        failures += 1
        print(f"[DIVERGED] {experiment_id}: runs disagree")
        print(f"  run 1: {first!r}")
        print(f"  run 2: {second!r}")
    print(f"{len(ids)} experiment(s): {len(ids) - failures} ok, {failures} diverged")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_experiments",
        description="Run registered experiments and print their tables.",
    )
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--replay-check", action="store_true",
                        help="run each experiment twice and compare the canonical results")
    add_jobs_argument(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Intermixed: ids may sit on either side of the options.
    options = build_parser().parse_intermixed_args(argv)
    requested = options.ids or list(EXPERIMENTS)
    unknown = [experiment_id for experiment_id in requested if experiment_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    if options.replay_check:
        return replay_check(requested, jobs=options.jobs)
    run(requested, jobs=options.jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
