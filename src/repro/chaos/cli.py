"""Command-line driver: ``python -m repro.chaos`` / ``oftt-chaos``.

Exit-code contract (mirrors ``oftt-lint`` / ``oftt-replay``; relied on
by ``make chaos`` inside ``make verify``):

* ``0`` — every schedule ran with zero invariant violations
* ``1`` — at least one violation (report includes the minimized
  reproducer for the first failing schedule)
* ``2`` — usage error

Examples::

    python -m repro.chaos --smoke                 # the make-verify gate
    oftt-chaos --seeds 10 --schedules 8           # a bigger campaign
    oftt-chaos --self-test                        # prove the monitors fire
    oftt-chaos --smoke --format json --out report.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

# oftt-lint: file-ok[ambient-io] -- the chaos driver is a host-side CLI.
from repro.chaos.minimize import MinimizationResult, minimize_schedule
from repro.chaos.report import render_json, render_text
from repro.chaos.runner import SABOTAGES, RunResult, run_schedule, run_schedule_task
from repro.chaos.schedule import (
    DRIFT_PROFILES,
    ChaosSchedule,
    FaultEntry,
    ScheduleGenerator,
    drift_schedule,
)
from repro.core.config import (
    REPLICATION_STRATEGIES,
    OfttConfig,
    RecoveryRule,
    replace_config,
)
from repro.harness.scenario import ChaosScenario
from repro.perf.executor import add_jobs_argument, parallel_map
from repro.simnet.random import RngStreams

#: --smoke preset: seeds x schedules (>= 20 runs, the ISSUE gate).
SMOKE_SEEDS = 5
SMOKE_SCHEDULES = 4

#: The self-test schedule: partition then heal.  With dual-primary
#: resolution sabotaged this is the minimal split-brain recipe.
SELF_TEST_ENTRIES = [
    FaultEntry(2_000.0, "partition", {"side_a": ["alpha"], "side_b": ["beta"]}),
    FaultEntry(6_000.0, "heal-network", {}),
    # Decoy noise the minimizer must discard to reach <= 3 faults.
    FaultEntry(3_000.0, "message-duplication", {"link": "lan0", "probability": 0.1}),
    FaultEntry(7_000.0, "message-duplication", {"link": "lan0", "probability": 0.0}),
    FaultEntry(8_000.0, "app-crash", {"node": "beta", "process": "synthetic"}),
]
SELF_TEST_HORIZON = 20_000.0
SELF_TEST_SABOTAGE = "disable-dual-primary-resolution"

#: The governor self-test schedule: one sticky crash that keeps killing
#: the app for two seconds.  Under the adaptive policy with a
#: deliberately local-heavy rule the thrash detector escalates after two
#: rapid failures; with the governor sabotaged (``disable-cooldown``)
#: restarts burn at full speed and the restart-thrash monitor must fire.
SELF_TEST_THRASH_ENTRIES = [
    FaultEntry(2_000.0, "sticky-app-crash",
               {"node": "alpha", "process": "synthetic", "duration": 2_000.0}),
]
SELF_TEST_THRASH_HORIZON = 12_000.0
SELF_TEST_THRASH_SABOTAGE = "disable-cooldown"


def _thrash_config() -> OfttConfig:
    """Adaptive policy + a local-heavy rule worth governing."""
    return replace_config(
        OfttConfig(),
        adaptive_policy=True,
        default_rule=RecoveryRule(max_local_restarts=50, restart_delay=25.0),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-chaos",
        description=(
            "Randomized fault campaigns: seeded schedules against the OFTT pair "
            "with live invariant monitors and failing-schedule minimization."
        ),
    )
    parser.add_argument("--seeds", type=int, default=SMOKE_SEEDS,
                        help=f"number of seeds to campaign over (default: {SMOKE_SEEDS})")
    parser.add_argument("--schedules", type=int, default=SMOKE_SCHEDULES,
                        help=f"schedules generated per seed (default: {SMOKE_SCHEDULES})")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed value (default: 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the verification-gate preset "
                             f"({SMOKE_SEEDS} seeds x {SMOKE_SCHEDULES} schedules)")
    parser.add_argument("--self-test", action="store_true",
                        help="sabotage dual-primary resolution (split-brain monitor) and the "
                             "adaptive restart governor (restart-thrash monitor) and verify "
                             "both are caught (expected exit code: 1)")
    parser.add_argument("--drift", default="", choices=("",) + tuple(sorted(DRIFT_PROFILES)),
                        metavar="PROFILE",
                        help="replace generated schedules with the named deterministic "
                             f"drifting fault-mix ({', '.join(sorted(DRIFT_PROFILES))}); "
                             "one run per seed")
    parser.add_argument("--policy", action="store_true",
                        help="enable the adaptive recovery policy for every run "
                             "(self-healing governor, detector tuning, strategy switching)")
    parser.add_argument("--max-minimize-runs", type=int, default=64,
                        help="ddmin re-run budget for minimization (default: 64)")
    parser.add_argument("--sabotage", default="", metavar="NAME",
                        help="run the whole campaign with a named sabotage hook installed "
                             "(monitor self-checks; see --self-test)")
    parser.add_argument("--strategy", default="", choices=("",) + REPLICATION_STRATEGIES,
                        metavar="NAME",
                        help="run the campaign under a replication strategy "
                             f"({', '.join(REPLICATION_STRATEGIES)}; default: the config default)")
    add_jobs_argument(parser)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--out", default="",
                        help="also write the report to this file")
    return parser


def campaign_tasks(
    seeds: int,
    schedules: int,
    seed_base: int,
    sabotage_name: str = "",
) -> List[Tuple[int, ChaosSchedule, str]]:
    """Generate the ``seeds x schedules`` task list, in canonical order.

    Schedule generation stays serial (it is cheap and each seed's
    generator RNG advances per schedule); only the runs fan out.
    """
    tasks: List[Tuple[int, ChaosSchedule, str]] = []
    for seed in range(seed_base, seed_base + seeds):
        generator = ScheduleGenerator(
            nodes=list(ChaosScenario.PAIR_NODES),
            links=["lan0"],
            process=ChaosScenario.APP_NAME,
            rng=RngStreams(seed).stream("chaos.schedule"),
        )
        for _ in range(schedules):
            tasks.append((seed, generator.generate(), sabotage_name))
    return tasks


def campaign(
    seeds: int,
    schedules: int,
    seed_base: int,
    sabotage_name: str = "",
    jobs: int = 1,
    config: Optional[OfttConfig] = None,
) -> List[RunResult]:
    """Generate and execute ``seeds x schedules`` runs, in order.

    With ``jobs > 1`` the independent runs execute on a process pool;
    results are merged in task order, so the campaign (and any report
    rendered from it) is byte-identical to the serial run.  A *config*
    (e.g. a non-default replication strategy) extends each task to the
    four-element form; default campaigns keep the three-element tasks.
    """
    tasks: List[Tuple] = campaign_tasks(seeds, schedules, seed_base, sabotage_name=sabotage_name)
    if config is not None:
        tasks = [(seed, schedule, name, config) for seed, schedule, name in tasks]
    return parallel_map(run_schedule_task, tasks, jobs=jobs)


def drift_campaign(
    profile: str,
    seeds: int,
    seed_base: int,
    sabotage_name: str = "",
    jobs: int = 1,
    config: Optional[OfttConfig] = None,
) -> List[RunResult]:
    """Run the deterministic drifting fault-mix under *seeds* testbeds.

    The schedule is a pure function of *profile* (no RNG), so each seed
    runs the identical fault story — only the scenario's own seeded
    randomness (network jitter, workload) varies.  One run per seed.
    """
    schedule = drift_schedule(profile, list(ChaosScenario.PAIR_NODES), ChaosScenario.APP_NAME)
    tasks: List[Tuple] = [
        (seed, schedule, sabotage_name) for seed in range(seed_base, seed_base + seeds)
    ]
    if config is not None:
        tasks = [(seed, sched, name, config) for seed, sched, name in tasks]
    return parallel_map(run_schedule_task, tasks, jobs=jobs)


def self_test() -> Tuple[List[RunResult], Optional[MinimizationResult], List[str]]:
    """The monitor self-check: broken recovery must be caught and shrunk.

    Two sabotage cases, each expected to trip its dedicated monitor:

    * ``disable-dual-primary-resolution`` + partition/heal — split-brain;
    * ``disable-cooldown`` + adaptive policy + sticky crash —
      restart-thrash.

    Returns the run results, the minimization of the first failing
    schedule, and a list of *problems*: cases whose expected monitor did
    **not** fire (the self-test itself is broken when non-empty).
    """
    cases: List[Tuple[str, ChaosSchedule, str, Optional[OfttConfig], str]] = [
        ("split-brain",
         ChaosSchedule(entries=list(SELF_TEST_ENTRIES), horizon=SELF_TEST_HORIZON),
         SELF_TEST_SABOTAGE, None, "split-brain"),
        ("restart-thrash",
         ChaosSchedule(entries=list(SELF_TEST_THRASH_ENTRIES), horizon=SELF_TEST_THRASH_HORIZON),
         SELF_TEST_THRASH_SABOTAGE, _thrash_config(), "restart-thrash"),
    ]
    results: List[RunResult] = []
    problems: List[str] = []
    minimization: Optional[MinimizationResult] = None
    for label, schedule, sabotage_name, config, expected in cases:
        result = run_schedule(0, schedule, sabotage_name=sabotage_name, config=config)
        results.append(result)
        if expected not in result.violation_names():
            problems.append(
                f"{label}: sabotage {sabotage_name!r} did not trip the "
                f"{expected!r} monitor (violations: {result.violation_names()})"
            )
        elif minimization is None:
            minimization = minimize_schedule(
                0, schedule, expected, sabotage_name=sabotage_name, config=config
            )
    return results, minimization, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.seeds < 1 or options.schedules < 1:
        print("oftt-chaos: --seeds and --schedules must be positive", file=sys.stderr)
        return 2

    if options.sabotage and options.sabotage not in SABOTAGES:
        print(f"oftt-chaos: unknown sabotage {options.sabotage!r}; "
              f"available: {sorted(SABOTAGES)}", file=sys.stderr)
        return 2

    config: Optional[OfttConfig] = None
    overrides = {}
    if options.strategy:
        overrides["replication_strategy"] = options.strategy
    if options.policy:
        overrides["adaptive_policy"] = True
    if overrides:
        config = replace_config(OfttConfig(), **overrides)

    minimization: Optional[MinimizationResult] = None
    if options.self_test:
        results, minimization, problems = self_test()
        mode = "self-test"
        if problems:
            for problem in problems:
                print(f"oftt-chaos: self-test problem: {problem}", file=sys.stderr)
            # Force exit 0 ("nothing caught") so the make wrapper, which
            # expects 1, flags the broken self-test loudly.
            return 0
    elif options.drift:
        results = drift_campaign(options.drift, options.seeds, options.seed_base,
                                 sabotage_name=options.sabotage, jobs=options.jobs,
                                 config=config)
        mode = f"drift:{options.drift}"
        first_failed = next((r for r in results if not r.passed), None)
        if first_failed is not None:
            minimization = minimize_schedule(
                first_failed.seed,
                first_failed.schedule,
                first_failed.violation_names()[0],
                sabotage_name=first_failed.sabotage,
                max_runs=options.max_minimize_runs,
                config=config,
            )
    else:
        seeds = SMOKE_SEEDS if options.smoke else options.seeds
        schedules = SMOKE_SCHEDULES if options.smoke else options.schedules
        results = campaign(seeds, schedules, options.seed_base,
                           sabotage_name=options.sabotage, jobs=options.jobs,
                           config=config)
        mode = "smoke" if options.smoke else "campaign"
        first_failed = next((r for r in results if not r.passed), None)
        if first_failed is not None:
            # ddmin stays serial for any --jobs: the algorithm's next
            # subset depends on the previous verdict, and its runs_used
            # accounting is part of the byte-stable report.
            minimization = minimize_schedule(
                first_failed.seed,
                first_failed.schedule,
                first_failed.violation_names()[0],
                sabotage_name=first_failed.sabotage,
                max_runs=options.max_minimize_runs,
                config=config,
            )

    if options.format == "json":
        rendered = render_json(results, minimization, mode=mode)
        sys.stdout.write(rendered)
    else:
        rendered = render_text(results, minimization) + "\n"
        sys.stdout.write(rendered)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)

    return 0 if all(result.passed for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
