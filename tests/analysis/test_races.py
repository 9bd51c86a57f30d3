"""Self-tests for the sim race detector."""

from __future__ import annotations

import pytest

from repro.analysis import effects, races

from tests.analysis.util import analyze, rule_ids


def race(source: str):
    return analyze(source, races.run)


# -- RACE001 write/write -------------------------------------------------


def test_write_write_fires_on_two_scheduled_writers():
    findings = race(
        """
        class Pump:
            def start(self):
                self.kernel.schedule(5.0, self._open_valve)
                self.kernel.schedule(5.0, self._close_valve)

            def _open_valve(self):
                self.valve = "open"

            def _close_valve(self):
                self.valve = "closed"
        """
    )
    assert rule_ids(findings) == ["RACE001"]
    assert "valve" in findings[0].message


def test_write_write_quiet_when_only_one_writer_is_scheduled():
    assert race(
        """
        class Pump:
            def start(self):
                self.kernel.schedule(5.0, self._open_valve)

            def _open_valve(self):
                self.valve = "open"

            def close_now(self):
                self.valve = "closed"
        """
    ) == []


# -- RACE002 write/read --------------------------------------------------


def test_write_read_fires_between_scheduled_handlers():
    findings = race(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self._sample)
                self.kernel.schedule(1.0, self._report)

            def _sample(self):
                self.reading = 42

            def _report(self):
                self.trace.emit(self.reading)
        """
    )
    assert rule_ids(findings) == ["RACE002"]
    assert "reading" in findings[0].message


def test_write_read_quiet_on_disjoint_state():
    assert race(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self._sample)
                self.kernel.schedule(1.0, self._report)

            def _sample(self):
                self.reading = 42

            def _report(self):
                self.trace.emit(self.report_count)
        """
    ) == []


# -- RACE003 container mutation vs iteration -----------------------------


def test_container_iter_fires():
    findings = race(
        """
        class Registry:
            def start(self):
                self.kernel.schedule(1.0, self._add_watch)
                self.kernel.schedule(1.0, self._sweep)

            def _add_watch(self):
                self.watches.append("w")

            def _sweep(self):
                for watch in self.watches:
                    watch.poll()
        """
    )
    ids = rule_ids(findings)
    assert "RACE003" in ids
    assert "watches" in [f.message for f in findings if f.rule.rule_id == "RACE003"][0]


def test_container_iter_quiet_on_snapshot_iteration_style():
    # Reading a scalar and mutating a different container do not collide.
    assert race(
        """
        class Registry:
            def start(self):
                self.kernel.schedule(1.0, self._add_watch)
                self.kernel.schedule(1.0, self._sweep)

            def _add_watch(self):
                self.pending.append("w")

            def _sweep(self):
                for watch in self.active:
                    watch.poll()
        """
    ) == []


# -- one effect model under both race families --------------------------

#: Same-tick conflicts in handler bodies that the race pass used to read
#: as no write at all, while the effects pass left them to RACE001: an
#: in-place reorder, a store through ``self.a.b``, and a mutator call on
#: ``self.a.b``.
NEITHER_FAMILY_SHAPES = {
    "sort-reverse": ("rows", "self.rows.sort()", "self.rows.reverse()"),
    "nested-store": ("valve", 'self.valve.state = "open"', 'self.valve.state = "closed"'),
    "nested-mutator": ("buf", "self.buf.items.append(1)", "self.buf.items.append(2)"),
}


@pytest.mark.parametrize("shape", sorted(NEITHER_FAMILY_SHAPES))
def test_direct_conflicts_are_reported_once_by_race001(shape):
    attr, first, second = NEITHER_FAMILY_SHAPES[shape]
    findings = analyze(
        f"""
        class Plant:
            def start(self):
                self.kernel.schedule(1.0, self._first)
                self.kernel.schedule(1.0, self._second)

            def _first(self):
                {first}

            def _second(self):
                {second}
        """,
        races.run,
        effects.run,
    )
    assert rule_ids(findings) == ["RACE001"]
    assert f"Plant.{attr} written by same-tick handlers _first, _second" in findings[0].message


def test_sorted_and_comprehension_iteration_count_as_iteration():
    findings = race(
        """
        class Registry:
            def start(self):
                self.kernel.schedule(1.0, self._add)
                self.kernel.schedule(1.0, self._sweep)
                self.kernel.schedule(1.0, self._count)

            def _add(self):
                self.watches["w"] = 1
                self.pending.append("p")

            def _sweep(self):
                for name in sorted(self.watches.items()):
                    name.poll()

            def _count(self):
                return [p for p in self.pending.values()]
        """
    )
    iterated = sorted(f.message.split(" ")[0] for f in findings if f.rule.rule_id == "RACE003")
    assert iterated == ["Registry.pending", "Registry.watches"]


def test_class_nested_in_a_function_keeps_race001():
    # Such a class has no call-graph key; the race pass builds its
    # handlers' summaries from the class model instead.
    findings = race(
        """
        def build(kernel):
            class Pump:
                def start(self):
                    kernel.schedule(5.0, self._open_valve)
                    kernel.schedule(5.0, self._close_valve)

                def _open_valve(self):
                    self.valve = "open"

                def _close_valve(self):
                    self.valve = "closed"

            return Pump()
        """
    )
    assert rule_ids(findings) == ["RACE001"]
    assert findings[0].line == 11  # the first writer by name: _close_valve


# -- RACE004 loop-variable capture ---------------------------------------


def test_loop_capture_fires_on_lambda_in_loop():
    findings = race(
        """
        def arm(kernel, nodes):
            for node in nodes:
                kernel.schedule(1.0, lambda: node.poke())
        """
    )
    assert rule_ids(findings) == ["RACE004"]
    assert "node" in findings[0].message


def test_loop_capture_fires_on_lambda_passed_by_keyword():
    findings = race(
        """
        class Pinger:
            def arm(self, names):
                for name in names:
                    self.kernel.schedule(1.0, callback=lambda: self.ping(name))
        """
    )
    assert rule_ids(findings) == ["RACE004"]
    assert "lambda passed to schedule() captures loop variable name" in findings[0].message


def test_loop_capture_fires_on_nested_def_passed_by_name():
    findings = race(
        """
        class Pinger:
            def arm(self, count):
                for idx in range(count):
                    def fire():
                        self.ping(idx)
                    self.kernel.schedule(2.0, fire)
        """
    )
    assert rule_ids(findings) == ["RACE004"]
    assert "def fire passed to schedule() captures loop variable idx" in findings[0].message
    assert (findings[0].line, findings[0].col) == (7, 38)


def test_loop_capture_quiet_when_nested_def_binds_the_variable():
    assert race(
        """
        class Pinger:
            def arm(self, count):
                for idx in range(count):
                    def fire(idx=idx):
                        self.ping(idx)
                    self.kernel.schedule(2.0, fire)
                for idx in range(count):
                    def fire_with(idx):
                        self.ping(idx)
                    self.kernel.schedule(2.0, fire_with, idx)
        """
    ) == []


def test_loop_capture_quiet_when_bound_as_default_or_args():
    assert race(
        """
        def arm(kernel, nodes):
            for node in nodes:
                kernel.schedule(1.0, lambda n=node: n.poke())
            for node in nodes:
                kernel.schedule(1.0, node.poke)
        """
    ) == []


# -- scoping -------------------------------------------------------------


def test_handlers_must_be_scheduled_to_pair():
    # Plain methods that are never registered with the kernel never race.
    assert race(
        """
        class Quiet:
            def _a(self):
                self.x = 1

            def _b(self):
                self.x = 2
        """
    ) == []
