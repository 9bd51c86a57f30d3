"""Deterministic parallel execution for independent seeded runs.

* :mod:`repro.perf.executor` — a process-pool fan-out whose merged
  results are byte-identical to the serial run regardless of worker
  count (see PERF.md).  Wired into ``oftt-chaos --jobs``,
  ``oftt-replay --jobs``, ``oftt-bench --jobs`` and
  ``run_experiments --jobs``.

Byte-identity across worker counts is checked by the tier-1 tests in
``tests/perf``.  The parameter sweeps are registry experiments S1–S3
(``run_experiments S1 S2 S3``).
"""

from repro.perf.executor import parallel_map, resolve_jobs

__all__ = ["parallel_map", "resolve_jobs"]
