# Developer entry points.  `make verify` is the CI gate: tier-1 tests,
# the static-analysis toolkit (see ANALYSIS.md), the dynamic
# replay-divergence gate (see REPLAY.md), the chaos smoke campaign
# (see CHAOS.md), and the parallel-equivalence gate (see PERF.md).

PY := PYTHONPATH=src python

.PHONY: test test-par lint lint-tests lint-json replay replay-json chaos chaos-selftest strategy-matrix policy-matrix perf-gate bench bench-diff e2e-selftest verify

test:
	$(PY) -m pytest -x -q

# The persistent-pool profile: the executor suite re-run with the shared
# worker pool exercised at jobs 1, 2 and 4 inside one interpreter, so
# pool reuse, resize-respawn and byte-identity across worker counts are
# all covered (see tests/perf/test_parallel_profile.py).
test-par:
	$(PY) -m pytest -x -q tests/perf

# The interprocedural effects pass (--effects: call-graph race
# propagation + parallel_map purity) and the hot-path pass (--hotpath:
# HOT001-HOT006 over the roots in src/repro/analysis/hotpath.manifest)
# are on for the lint gates; the planted-defect corpora that prove they
# work are gated by tests/analysis/test_effects_corpus.py and
# tests/analysis/test_hotpath_corpus.py under `make test`.  Results are
# cached in .oftt-lint-cache.json (keyed by content hash + rule-set
# version); pass --no-cache to force a cold run.
lint:
	$(PY) -m repro.analysis src/repro --strict --effects --hotpath --lifecycle

# Tests are linted with the per-directory profile: the ambient DET rules
# (unseeded randomness, entropy, environment reads) are relaxed because
# property-style tests and CLI fixtures use them deliberately, and the
# PURE rules because test tasks exercise impurity on purpose.  The
# planted-defect corpus additionally violates both race families and all
# six lifecycle rules by design (the default lifecycle manifest matches
# by method name, so the planted corpus classes trip it directly).
lint-tests:
	$(PY) -m repro.analysis tests --strict --effects --hotpath --lifecycle \
		--relax tests=DET002,DET003,DET006,PURE001,PURE002,PURE003,PURE004 \
		--relax tests/analysis/corpus=RACE001,RACE002,RACE003,RACE101,RACE102,RACE103,LIFE001,LIFE002,LIFE003,LIFE004,LIFE005,LIFE006

lint-json:
	$(PY) -m repro.analysis src/repro --strict --effects --hotpath --lifecycle --format json

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

# The adaptive-policy gate: (1) the mixed drifting fault-mix runs
# violation-free under the adaptive policy (runtime strategy switches
# included, flapping/thrash monitors live), and (2) the smoke-sized
# policy sweep shows adaptive beating every static policy on mean
# recovery latency at an equal-or-lower spurious-failover count.
policy-matrix:
	$(PY) -m repro.chaos --drift mixed --policy --seeds 3 --jobs 2
	$(PY) -m repro.perf sweep --policies --profiles mixed --seeds 2 --jobs 2 --gate

# The executor contract (see PERF.md): a campaign run at --jobs 2 must
# render byte-identically to the serial run.
perf-gate:
	$(PY) -m repro.perf check-chaos --seeds 2 --schedules 2 --jobs 2

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

verify: test test-par lint lint-tests replay strategy-matrix policy-matrix chaos-selftest perf-gate bench-diff e2e-selftest
