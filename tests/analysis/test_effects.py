"""Self-tests for the interprocedural effects pass (RACE1xx / PURE rules)."""

from __future__ import annotations

from repro.analysis import effects
from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import Severity

from tests.analysis.util import analyze, method_chain, rule_ids


def run(source: str, path: str = "pkg/mod.py"):
    return analyze(source, effects.run, path=path)


# -- RACE101 interprocedural write/write ----------------------------------

TWO_HOP_WW = """
class Widget:
    def start(self):
        self.kernel.schedule(1.0, self.on_tick)
        self.kernel.schedule(1.0, self.on_poll)

    def on_tick(self):
        self._bump()

    def _bump(self):
        self._deep()

    def _deep(self):
        self.state += 1

    def on_poll(self):
        self.state = 2
"""


def test_write_write_through_two_hop_helper_chain():
    findings = run(TWO_HOP_WW)
    assert rule_ids(findings) == ["RACE101"]
    assert "on_tick -> _bump -> _deep" in findings[0].message
    assert findings[0].severity == Severity.WARNING


def _write_write_through(hops: int) -> str:
    """on_tick reaches its write of ``state`` through *hops* call hops."""
    return (
        "class Widget:\n"
        "    def start(self):\n"
        "        self.kernel.schedule(1.0, self.on_tick)\n"
        "        self.kernel.schedule(1.0, self.on_poll)\n"
        "\n"
        "    def on_tick(self):\n"
        "        self._hop1()\n"
        "\n"
        "    def on_poll(self):\n"
        "        self.state = 2\n"
        "\n" + method_chain(hops, "self.state += 1")
    )


def test_max_k_bounds_the_chain_depth():
    assert rule_ids(run(_write_write_through(DEFAULT_MAX_K))) == ["RACE101"]
    assert run(_write_write_through(DEFAULT_MAX_K + 1)) == []


def test_direct_direct_conflicts_are_left_to_race001():
    # Both handlers write in their own bodies: RACE001 territory, and the
    # effects pass must not double-report it.
    assert run(
        """
        class Widget:
            def start(self):
                self.kernel.schedule(1.0, self.on_tick)
                self.kernel.schedule(1.0, self.on_poll)

            def on_tick(self):
                self.state = 1

            def on_poll(self):
                self.state = 2
        """
    ) == []


def test_recursive_helpers_terminate():
    findings = run(
        """
        class Widget:
            def start(self):
                self.kernel.schedule(1.0, self.on_tick)
                self.kernel.schedule(1.0, self.on_poll)

            def on_tick(self):
                self._spin()

            def _spin(self):
                self.state = 1
                self._spin()

            def on_poll(self):
                self.state = 2
        """
    )
    assert rule_ids(findings) == ["RACE101"]


def test_suppression_slug_silences_the_anchor_line():
    findings = run(
        """
        class Widget:
            def start(self):
                self.kernel.schedule(1.0, self.on_poll)
                self.kernel.schedule(1.0, self.on_tick)

            def on_poll(self):  # oftt-lint: ok[ip-race-write-write]
                self.state = 2

            def on_tick(self):
                self._bump()

            def _bump(self):
                self.state = 1
        """
    )
    assert findings == []


# -- RACE102 interprocedural write/read -----------------------------------


def test_write_read_with_chained_writer():
    findings = run(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self.on_update)
                self.kernel.schedule(1.0, self.on_report)

            def on_update(self):
                self._refresh()

            def _refresh(self):
                self.reading = 42

            def on_report(self):
                return self.reading
        """
    )
    assert rule_ids(findings) == ["RACE102"]
    assert "on_update -> _refresh" in findings[0].message
    assert "on_report" in findings[0].message


def test_write_read_quiet_when_both_sides_are_direct():
    assert run(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self.on_update)
                self.kernel.schedule(1.0, self.on_report)

            def on_update(self):
                self.reading = 42

            def on_report(self):
                return self.reading
        """
    ) == []


# -- RACE103 interprocedural container conflicts ---------------------------


def test_container_mutation_through_helper_vs_direct_iteration():
    findings = run(
        """
        class Spool:
            def start(self):
                self.kernel.schedule(1.0, self.on_flush)
                self.kernel.schedule(1.0, self.on_scan)

            def on_flush(self):
                self._drain()

            def _drain(self):
                self.items.append(1)

            def on_scan(self):
                total = 0
                for item in self.items:
                    total += item
                return total
        """
    )
    # The container rule is the precise diagnosis; no RACE102 echo.
    assert rule_ids(findings) == ["RACE103"]
    assert "on_flush -> _drain" in findings[0].message


def test_handlers_in_different_classes_do_not_conflict():
    assert run(
        """
        class A:
            def start(self):
                self.kernel.schedule(1.0, self.on_a)

            def on_a(self):
                self._set()

            def _set(self):
                self.state = 1

        class B:
            def start(self):
                self.kernel.schedule(1.0, self.on_b)

            def on_b(self):
                self.state = 2
        """
    ) == []


# -- PURE001 impure task ---------------------------------------------------


def test_task_writing_module_global_is_impure():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        TOTALS = []

        def record(value):
            TOTALS.append(value)
            return value

        def main(values):
            return parallel_map(record, values, jobs=2)
        """
    )
    assert rule_ids(findings) == ["PURE001"]
    assert "TOTALS" in findings[0].message
    assert findings[0].severity == Severity.ERROR


def test_task_writing_global_through_helper_reports_the_chain():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        COUNTS = {}

        def bump(key):
            COUNTS[key] = COUNTS.get(key, 0) + 1

        def record(value):
            bump(value)
            return value

        def main(values):
            return parallel_map(record, values)
        """
    )
    assert rule_ids(findings) == ["PURE001"]
    assert "record -> bump" in findings[0].message


def test_pure_task_passes():
    assert run(
        """
        from repro.perf.executor import parallel_map

        def double(value):
            return value * 2

        def main(values):
            return parallel_map(double, values, jobs=4)
        """
    ) == []


# -- PURE002 unpicklable task ----------------------------------------------


def test_lambda_task_is_unpicklable():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        def main(values):
            return parallel_map(lambda v: v * 2, values)
        """
    )
    assert rule_ids(findings) == ["PURE002"]


def test_bound_method_task_is_unpicklable():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        class Runner:
            def work(self, value):
                return value

            def go(self, values):
                return parallel_map(self.work, values)
        """
    )
    assert rule_ids(findings) == ["PURE002"]
    assert "bound method" in findings[0].message


def test_nested_function_task_is_unpicklable():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        def main(values):
            def work(value):
                return value + 1
            return parallel_map(work, values)
        """
    )
    assert rule_ids(findings) == ["PURE002"]
    assert "nested" in findings[0].message


# -- PURE003 ambient entropy ----------------------------------------------


def test_task_drawing_global_rng_without_seed_param():
    findings = run(
        """
        import random

        from repro.perf.executor import parallel_map

        def sample(value):
            return value + random.random()

        def main(values):
            return parallel_map(sample, values)
        """
    )
    assert rule_ids(findings) == ["PURE003"]
    assert "random.random" in findings[0].message


def test_seed_parameter_is_the_sanctioned_escape():
    assert run(
        """
        import random

        from repro.perf.executor import parallel_map

        def sample(value, seed=0):
            rng = random.Random(seed)
            return value + rng.random()

        def main(values):
            return parallel_map(sample, values)
        """
    ) == []


# -- PURE004 argument mutation ---------------------------------------------


def test_task_mutating_its_argument():
    findings = run(
        """
        from repro.perf.executor import parallel_map

        def consume(batch):
            batch.append("done")
            return len(batch)

        def main(batches):
            return parallel_map(consume, batches)
        """
    )
    assert rule_ids(findings) == ["PURE004"]
    assert "batch" in findings[0].message


def test_task_copying_its_argument_passes():
    assert run(
        """
        from repro.perf.executor import parallel_map

        def consume(batch):
            out = list(batch)
            out.append("done")
            return len(out)

        def main(batches):
            return parallel_map(consume, batches)
        """
    ) == []


def test_unresolved_task_is_not_judged():
    # A task imported from outside the analysed file set: nothing to
    # vouch for, nothing to accuse.
    assert run(
        """
        from somewhere.else_ import mystery
        from repro.perf.executor import parallel_map

        def main(values):
            return parallel_map(mystery, values)
        """
    ) == []
