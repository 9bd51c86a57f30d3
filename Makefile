# Developer entry points.  `make verify` is the CI gate: tier-1 tests
# (which run every registered experiment once against its golden digest
# and paper claim, see EXPERIMENTS.md, and include the
# parallel-equivalence tests of tests/perf, see PERF.md), the
# static-analysis toolkit over src and tests (see ANALYSIS.md), the
# dynamic replay-divergence gate (see REPLAY.md), the chaos smoke
# campaign under every replication strategy, the adaptive-policy drift
# campaign and the sabotage self-test (see CHAOS.md), the bench-report
# diff (see PERF.md), and the end-to-end benchmark's self-tests.

PY := PYTHONPATH=src python

.PHONY: test lint lint-tests lint-json replay replay-json chaos chaos-selftest strategy-matrix policy-matrix bench bench-diff e2e-selftest verify

test:
	$(PY) -m pytest -x -q

# Every oftt-lint invocation runs all six passes (det, com, race,
# effects, hot, life) and gates on warnings as well as errors; the
# planted-defect corpora that prove the whole-program passes work are
# gated by tests/analysis/test_*_corpus.py under `make test`.  The
# examples are linted in the same invocation as the library: their
# applications subclass OfttApplication, whose teardown balances
# create_process, so linted alone they would raise false LIFE003 leaks.
lint:
	$(PY) -m repro.analysis src/repro examples

# Tests are linted with the per-directory profile: the ambient DET rules
# (unseeded randomness, entropy, environment reads) are relaxed because
# property-style tests and CLI fixtures use them deliberately, and the
# PURE rules because test tasks exercise impurity on purpose.  The
# planted-defect corpus additionally violates both race families and all
# six lifecycle rules by design (the default lifecycle manifest matches
# by method name, so the planted corpus classes trip it directly).
lint-tests:
	$(PY) -m repro.analysis tests \
		--relax tests=DET002,DET003,DET006,PURE001,PURE002,PURE003,PURE004 \
		--relax tests/analysis/corpus=RACE001,RACE002,RACE003,RACE101,RACE102,RACE103,LIFE001,LIFE002,LIFE003,LIFE004,LIFE005,LIFE006

lint-json:
	$(PY) -m repro.analysis src/repro --format json

replay:
	$(PY) -m repro.replay --gate

replay-json:
	$(PY) -m repro.replay --gate --format json

# The smoke campaign must be violation-free (exit 0), and the sabotaged
# self-test must be caught by the monitors (exit 1) — both are gates.
chaos:
	$(PY) -m repro.chaos --smoke

chaos-selftest:
	@$(PY) -m repro.chaos --self-test > /dev/null; \
	status=$$?; \
	if [ $$status -eq 1 ]; then \
		echo "chaos self-test: monitors caught the sabotage (exit $$status, as expected)"; \
	else \
		echo "chaos self-test: expected exit 1, got $$status" >&2; exit 1; \
	fi

# The chaos smoke campaign under every replication strategy: the default
# cold-passive run (the `chaos` target) plus leader-follower and
# log-replay-dr, all violation-free.
strategy-matrix: chaos
	$(PY) -m repro.chaos --smoke --strategy leader-follower
	$(PY) -m repro.chaos --smoke --strategy log-replay-dr

# The adaptive-policy gate: the mixed drifting fault-mix runs
# violation-free under the adaptive policy (runtime strategy switches
# included, flapping/thrash monitors live).  The dominance half of the
# gate (adaptive beats every static policy on mean recovery latency at
# an equal-or-lower spurious-failover count) is S3's check, which the
# tier-1 tests run (`make test`).
policy-matrix:
	$(PY) -m repro.chaos --drift mixed --policy --seeds 3 --jobs 2

# Quick-profile benchmark; saves the next numbered BENCH_<n>.json here.
# `make bench ONLY=kernel-events` runs a single bench (unsaved) for
# hot-path iteration.
bench:
ifdef ONLY
	$(PY) -m repro.bench --profile quick --jobs 2 --only $(ONLY)
else
	$(PY) -m repro.bench --profile quick --jobs 2 --save
endif

# Compare the two newest saved reports: work halves must be
# byte-identical, measured halves within the noise threshold.  A single
# baseline (fresh clone) is a clean no-op.
bench-diff:
	$(PY) -m repro.bench diff --latest

# Self-tests of the end-to-end benchmark in e2ebench/ (outside the tier-1
# testpaths; ~13 s): metric names and units, work-digest stability, the
# per-layer fold, and a sabotaged check failing the exit code.
e2e-selftest:
	python3 -m pytest e2ebench -q

verify: test lint lint-tests replay strategy-matrix policy-matrix chaos-selftest bench-diff e2e-selftest
