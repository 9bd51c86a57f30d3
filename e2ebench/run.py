"""End-to-end benchmark of the OFTT reproduction, with per-layer attribution.

Run from the repository root::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (``demo-failovers``, ``calltrack-load``, ``blackout-f1a``,
``chaos-mix``) and why each was chosen are described in
``workloads.py`` and mirrored in ``BENCHMARK.json``.  One process
generates the runs, one at a time (a closed loop with a single client):
each run is a freshly seeded scenario that starts when the previous one
has been checked.  The run inputs come from ``--seed`` alone.

Two kinds of numbers are reported and never mixed:

* Host metrics say what the simulator costs: set-up time, host time
  per run, simulated seconds per host second and the peak traced heap.
  They vary from run to run.
* Simulated outcomes of the modelled system (recovery latency,
  blackout, events lost) are a pure function of the run inputs, so they
  repeat exactly for a seed on any machine.  They are taken over the
  first ``fixed_runs`` runs of the workload, which every invocation
  completes however slow the host is.

``--trace 0`` measures with tracing off.  The end-to-end metrics
``BENCHMARK.json`` gates are:

``setup_s``
    Median over several fresh child interpreters of the CPU time from
    interpreter start through the ``repro`` imports to the end of one
    untimed warm-up run, in seconds of a nominal host on which
    :func:`reference_loop` takes ``NOMINAL_REFERENCE_S`` (10 ms): each
    child then times the loop and scales its set-up time by it.  Work
    moved into imports or warm-up shows here; a neighbour's load mostly
    does not, since CPU time leaves out waiting and the scale takes out a
    slower CPU.  On a shared 2-vCPU x86-64 VM the wall time of the same
    probes nearly doubled between two sets of runs an hour apart.
``sim_speed_ref``
    Median over runs of simulated seconds per host second, with the host
    second measured in units of :func:`reference_loop`: each run (build,
    start, simulate; the check runs after the clock stops) is followed by
    one timed pass of the loop, and the run's simulated seconds are
    divided by its host time over the loop's.  The loop is fixed
    stdlib-only Python, a yardstick no change to ``src`` can move.  On a
    shared 2-vCPU x86-64 VM under CPython 3.11 the raw time drifts with
    the neighbours' load: from one set of ten invocations to the next,
    median host time per ``blackout-f1a`` run moved by 23% while this
    ratio held within 1.5%.  The scale is not exact: in a stretch when
    the loop ran twice as slow as on a quiet host, the ratio read up to
    12% high on ``chaos-mix``.  Normalising per simulated second also keeps ``chaos-mix``, whose
    schedules run 18 to 40 simulated seconds, from reading the mix of
    run lengths as speed.
``peak_heap_mb``
    Largest ``tracemalloc`` peak of a single run over the first ten
    runs, in a separate untimed pass with ``gc.collect()`` and
    ``reset_peak()`` before each run.  Chaos schedules differ widely, so
    on ``chaos-mix`` the quartiles of ten seeds lay up to 14% apart;
    taking the largest of 30 runs, or their 90th percentile, was no
    steadier.

It also prints, ungated, the unscaled ``setup_cpu_s``, the raw
``sim_speed`` (simulated seconds per host second), ``run_p50_ms`` and
``run_p90_ms`` (host time per run), the median ``reference_loop`` time,
``fail_ratio`` and the simulated
outcomes of the first ``fixed_runs`` runs: ``recovery_p50_ms`` /
``recovery_p90_ms`` (fault injection to the first poll at which
``pair.is_stable()`` holds, the ``Campaign.run_fault`` definition with
10 ms polls; on ``chaos-mix`` an outage, a stretch of 50 ms monitor ticks
with the pair unstable), ``blackout_p50_ms`` / ``blackout_p90_ms``
(``blackout-f1a``), ``events_lost`` (the Call Track workloads: events
the audit replay had to fill) and ``work_digest``, a sha256 over those
runs' canonical outcomes (chaos runs include their trace fingerprint).
Simulated outcomes repeat exactly for a seed, so a change that claims
only speed must leave the digest byte-identical; they differ between
seeds by up to 12% on ``chaos-mix``, which is why they are compared per
seed through the digest rather than gated by a bound.

``--trace 1`` times each run untraced and then again under
``cProfile``, one profile per run, and folds every profile by layer
(``layers.py``).  It prints, per layer, ``<layer>.self_share`` (% of
traced self time), ``<layer>.self_ms_per_run`` and
``<layer>.entries_per_run`` (calls into the layer from another layer),
``unattributed.self_share``, ``trace_overhead`` (traced / untraced wall
time of the same runs; profiling adds cost per call, so shares lean
towards call-heavy layers) and deterministic per-run counts read after
each run.  The layer table, the cross-layer call matrix and each run's
fold are written to ``.bench_build/e2ebench/``.  To read the table: a
layer's self share is the most an end-to-end speed-up from that layer
alone can give on that workload; its entries count says whether the
saving must come from cheaper calls or from fewer of them.  ``opc`` runs
only on ``blackout-f1a`` and ``chaos`` only on ``chaos-mix``, but
``devices`` also holds the Call Track telephone lines, so it shows on
the Call Track workloads too, and the engine calls a few ``com``
helpers on every workload (well under 0.1% outside ``blackout-f1a``).

Every run is checked after the clock stops (see ``workloads.py``).  A
failed check or an exception counts the run as failed; the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 1 when any run failed.

The micro benches in ``repro.bench`` (``oftt-bench``) and the
``BENCH_<n>.json`` history stay as diagnostics; this benchmark does not
change them.
"""
# oftt-lint: file-ok[wall-clock] -- benchmarks time the host by definition; cProfile, tracemalloc
# and gc.collect() serve the same measurement and never touch simulated state.
# oftt-lint: file-ok[ambient-io] -- a host-side driver: it spawns the set-up probes (subprocess)
# and writes the trace report.

from __future__ import annotations

import argparse
import copy
import cProfile
import gc
import heapq
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 8
#: ``setup_s`` is given in seconds of a nominal host on which
#: :func:`reference_loop` takes this long, about this loop's time on a
#: quiet 2-vCPU x86-64 VM under CPython 3.11.
NOMINAL_REFERENCE_S = 0.010
#: Reference runs the memory pass traces.
MEMORY_RUNS = 10
TRACE_DIR = ROOT / ".bench_build" / "e2ebench"

#: The deterministic per-run counts of ``--trace 1`` and their units:
#: ``layers.COUNTED`` takes some from call counts, ``workloads.counts``
#: the rest from public state after each run.
COUNT_UNITS = {
    "simnet.kernel.scheduled": "count",
    "simnet.kernel.cancelled": "count",
    "simnet.network.delivered": "count",
    "simnet.network.dropped": "count",
    "simnet.trace.records": "count",
    "msq.sent": "count",
    "msq.retries": "count",
    "core.ftim.checkpoints": "count",
    "core.ftim.bytes_mean": "B",
    "core.diverter.redirected": "count",
    "com.calls": "count",
    "opc.updates": "count",
}

Metrics = Dict[str, Dict[str, Any]]


def _attempt(workload: Workload, run_input: Any, profiler: Optional[cProfile.Profile] = None):
    """Time one run and check it: ``(host seconds, Run or None, Outcome or None)``.

    An exception is reported on stderr and makes the run a failure; it
    does not stop the benchmark.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        run = workload.simulate(run_input) if profiler is None else profiler.runcall(workload.simulate, run_input)
    except Exception:  # noqa: BLE001  (a failed run is reported, not fatal)
        traceback.print_exc()
        return time.perf_counter() - start, None, None
    seconds = time.perf_counter() - start
    try:
        outcome = workload.check(run)
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        return seconds, run, None
    return seconds, run, outcome


class _Peer:
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def poke(self, amount: int) -> int:
        self.value += amount
        return self.value


def reference_loop() -> int:
    """Fixed work in the simulator's style: deepcopy, a heap, small objects.

    The yardstick of ``sim_speed_ref``.  It must never change, and it uses
    nothing from ``src``, so a change to the simulator cannot move it.
    About 10 ms on a 2-vCPU x86-64 VM under CPython 3.11.
    """
    state = {f"var{i}": [i, {"x": float(i), "tags": ["a", "b"]}] for i in range(150)}
    for _ in range(12):
        copy.deepcopy(state)
    heap: List[Tuple[int, int]] = []
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)
    peers = [_Peer(f"n{i}") for i in range(300)]
    total = 0
    for step in range(20):
        for peer in peers:
            total += peer.poke(step)
    return total


def _reference_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    gc.collect()
    start = clock()
    reference_loop()
    return clock() - start


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (inclusive method)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _failed(outcome: Optional[Outcome]) -> bool:
    return outcome is None or not outcome.passed


def setup_probe(workload: Workload, seed: int) -> Tuple[float, float]:
    """Set-up time of one fresh interpreter: imports plus one warm-up run.

    The probe reports the CPU seconds it spent from interpreter start to
    the end of its warm-up, and then the median CPU time of a few passes
    of :func:`reference_loop`.  Returns the set-up time raw and rescaled
    to the nominal host.
    """
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    setup_cpu_s, reference_cpu_s = (float(word) for word in probe.stdout.split()[-2:])
    return setup_cpu_s, setup_cpu_s * NOMINAL_REFERENCE_S / reference_cpu_s


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed run outside the measured inputs; it must pass its check."""
    _seconds, _run, outcome = _attempt(workload, workload.warmup_input(seed))
    if _failed(outcome):
        raise RuntimeError(f"{workload.name}: the warm-up run failed its check")
    _reference_seconds()


def peak_heap_mb(workload: Workload, seed: int, runs: int) -> float:
    """Largest single-run ``tracemalloc`` peak over the first *runs* inputs."""
    inputs = workload.inputs(seed)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(runs):
            run_input = next(inputs)
            gc.collect()
            tracemalloc.reset_peak()
            workload.simulate(run_input)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return max(peaks) / 1e6


def _loop(workload: Workload, seed: int, seconds: float, minimum: int):
    """Run inputs, in order, until *seconds* have passed and at least *minimum* ran."""
    inputs = workload.inputs(seed)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        yield done, next(inputs)
        done += 1


def timed_pass(
    workload: Workload, seed: int, seconds: float
) -> Tuple[List[float], List[float], List[Optional[Outcome]]]:
    """Host seconds of every run and of the reference loop after it, and each outcome."""
    walls: List[float] = []
    references: List[float] = []
    outcomes: List[Optional[Outcome]] = []
    for _index, run_input in _loop(workload, seed, seconds, workload.fixed_runs):
        wall, run, outcome = _attempt(workload, run_input)
        del run  # free the scenario before the reference loop and the next run
        walls.append(wall)
        references.append(_reference_seconds())
        outcomes.append(outcome)
    return walls, references, outcomes


def end_to_end(
    workload: Workload, seed: int, seconds: float, setup_probes: int, memory_runs: int
) -> Tuple[Metrics, int, int, List[str]]:
    """The ``--trace 0`` measurement: metrics, attempted, failed, report lines.

    Half the set-up probes run before the timed pass and half after the
    memory pass, so that a burst of load on the host meets few of them.
    """
    probes = [setup_probe(workload, seed) for _ in range(setup_probes // 2)]
    warm_up(workload, seed)
    walls, references, outcomes = timed_pass(workload, seed, seconds)
    heap_mb = peak_heap_mb(workload, seed, memory_runs)
    probes += [setup_probe(workload, seed) for _ in range(setup_probes - setup_probes // 2)]
    setup_cpu_s = statistics.median(raw for raw, _nominal in probes)
    setup_s = statistics.median(nominal for _raw, nominal in probes)

    paired = [(wall, reference, outcome) for wall, reference, outcome in zip(walls, references, outcomes)
              if outcome is not None]
    metrics: Metrics = {
        "setup_s": _metric(setup_s, "s"),
        "sim_speed_ref": _metric(
            statistics.median(o.sim_ms / 1e3 * r / w for w, r, o in paired) if paired else 0.0, "sim_s/ref"
        ),
        "peak_heap_mb": _metric(heap_mb, "MB"),
    }
    failed = sum(1 for outcome in outcomes if _failed(outcome))
    run_ms = [wall * 1e3 for wall in walls]
    lines = [f"{name:<16} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [
        f"{'setup_cpu_s':<16} {setup_cpu_s:.6g} s (CPU seconds, unscaled)",
        f"{'sim_speed':<16} {statistics.median(o.sim_ms / 1e3 / w for w, _r, o in paired) if paired else 0.0:.6g}"
        " sim_s/s (host seconds)",
        f"{'run_p50_ms':<16} {statistics.median(run_ms):.6g} ms over {len(run_ms)} runs",
        f"{'run_p90_ms':<16} {percentile(run_ms, 90):.6g} ms",
        f"{'reference_ms':<16} {statistics.median(references) * 1e3:.6g} ms (median of reference_loop)",
        f"{'fail_ratio':<16} {failed / len(outcomes):.6g} failed/attempted ({failed}/{len(outcomes)})",
    ]

    fixed = outcomes[: workload.fixed_runs]
    checked = [outcome for outcome in fixed if outcome is not None]
    simulated = {
        "recovery": [ms for outcome in checked for ms in outcome.recoveries_ms],
        "blackout": [outcome.blackout_ms for outcome in checked if outcome.blackout_ms is not None],
    }
    for name, values in simulated.items():
        if values:
            lines.append(f"{name + '_p50_ms':<16} {percentile(values, 50):.6g} ms simulated")
            lines.append(f"{name + '_p90_ms':<16} {percentile(values, 90):.6g} ms simulated "
                         f"({len(values)} over the first {len(fixed)} runs)")
    lost = [outcome.events_lost for outcome in checked if outcome.events_lost is not None]
    if lost:
        lines.append(f"{'events_lost':<16} {sum(lost)} count over the first {len(fixed)} runs")
    digest_input = [outcome if outcome is not None else Outcome(False, 0.0, []) for outcome in fixed]
    lines.append(f"{'work_digest':<16} {workloads.work_digest(digest_input)}")
    return metrics, len(outcomes), failed, lines


def traced(workload: Workload, seed: int, seconds: float) -> Tuple[Metrics, int, int, List[str], Dict]:
    """The ``--trace 1`` measurement: per-layer metrics plus the trace document."""
    warm_up(workload, seed)
    total = layers.Fold()
    per_run: List[Dict[str, Any]] = []
    counts: Dict[str, float] = defaultdict(float)
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    for index, run_input in _loop(workload, seed, seconds, workload.trace_runs):
        wall, run, plain = _attempt(workload, run_input)
        del run
        profiler = cProfile.Profile()
        traced_wall, run, outcome = _attempt(workload, run_input, profiler)
        attempted += 1
        # The profiler must not change what is simulated.
        if _failed(plain) or _failed(outcome) or plain.wire != outcome.wire:
            failed += 1
        untraced_s += wall
        traced_s += traced_wall
        profiler.create_stats()
        fold = layers.fold(profiler.stats)
        total.add(fold)
        run_seed = run_input[0] if isinstance(run_input, tuple) else run_input  # chaos tasks lead with it
        per_run.append({"run": index, "seed": run_seed, **fold.as_wire()})
        if index < workload.trace_runs and run is not None:
            for name, value in (*workloads.counts(run).items(), *fold.ncalls.items()):
                counts[name] += value

    runs = len(per_run)
    traced_total = total.total_s
    metrics: Metrics = {}
    for layer in layers.LAYERS:
        self_s = total.self_s.get(layer, 0.0)
        metrics[f"{layer}.self_share"] = _metric(100.0 * self_s / traced_total, "%")
        metrics[f"{layer}.self_ms_per_run"] = _metric(self_s * 1e3 / runs, "ms")
        metrics[f"{layer}.entries_per_run"] = _metric(total.entries(layer) / runs, "count")
    metrics["unattributed.self_share"] = _metric(
        100.0 * total.self_s.get(layers.UNATTRIBUTED, 0.0) / traced_total, "%"
    )
    metrics["trace_overhead"] = _metric(traced_s / untraced_s, "x")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = _metric(counts[name] / workload.trace_runs, unit)

    ranked = sorted(layers.LAYERS, key=lambda layer: -metrics[f"{layer}.self_share"]["value"])
    lines = [f"{'layer':<16} {'self %':>7} {'ms/run':>9} {'entries/run':>12}"]
    for layer in ranked:
        lines.append(
            f"{layer:<16} {metrics[f'{layer}.self_share']['value']:7.2f} "
            f"{metrics[f'{layer}.self_ms_per_run']['value']:9.2f} "
            f"{metrics[f'{layer}.entries_per_run']['value']:12.1f}"
        )
    lines.append(f"unattributed {metrics['unattributed.self_share']['value']:.3f} %   "
                 f"trace_overhead x{metrics['trace_overhead']['value']:.2f} over {runs} runs")
    document = {
        "workload": workload.name,
        "seed": seed,
        "runs": runs,
        "trace_overhead": metrics["trace_overhead"]["value"],
        "layers": {layer: {
            "self_share": metrics[f"{layer}.self_share"]["value"],
            "self_ms_per_run": metrics[f"{layer}.self_ms_per_run"]["value"],
            "entries_per_run": metrics[f"{layer}.entries_per_run"]["value"],
        } for layer in layers.LAYERS},
        "total": total.as_wire(),
        "per_run": per_run,
    }
    return metrics, attempted, failed, lines, document


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="End-to-end OFTT benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        warm_up(workload, args.seed)
        setup_cpu_s = time.process_time()
        reference_cpu_s = statistics.median(_reference_seconds(time.process_time) for _ in range(5))
        print(setup_cpu_s, reference_cpu_s)
        return 0
    if args.trace:
        metrics, attempted, failed, lines, document = traced(workload, args.seed, args.seconds)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        lines.append(f"trace report: {path.relative_to(ROOT)}")
    else:
        metrics, attempted, failed, lines = end_to_end(
            workload, args.seed, args.seconds, SETUP_PROBES, MEMORY_RUNS
        )
    print(f"workload {workload.name}  seed {args.seed}  runs {attempted}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
