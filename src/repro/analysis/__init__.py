"""Static-analysis toolkit guarding the simulation's reliability contracts.

The kernel promises that two runs with the same seed produce identical
traces (:mod:`repro.simnet.kernel`), and the COM layer promises that every
remotable object honours its declared interfaces
(:mod:`repro.com.object`).  Nothing in Python enforces either promise: one
stray ``time.time()`` or an undeclared CamelCase method silently breaks
replay or the marshalling contract.  This package machine-checks both,
plus a third hazard class — same-timestamp event handlers whose relative
order is fixed only by the kernel's sequence-number tiebreak.

Six passes run over the source tree on every invocation (``python -m
repro.analysis src/repro``); the last three are whole-program passes:

* :mod:`repro.analysis.determinism` — seed-replay hazards (``DET*``).
* :mod:`repro.analysis.comcheck` — ``ComObject`` subclasses against their
  ``InterfaceDecl``s, HRESULT discipline (``COM*``).
* :mod:`repro.analysis.races` — same-tick handler conflicts from direct
  effect summaries (``RACE001–003``), loop-variable capture (``RACE004``).
* :mod:`repro.analysis.effects` — those summaries propagated over a call
  graph with k-bounded inlining: interprocedural races (``RACE101–103``)
  and ``parallel_map`` task purity (``PURE001–004``).
* :mod:`repro.analysis.hotpath` — per-event waste on hot paths (``HOT*``).
* :mod:`repro.analysis.lifecycle` — acquire/release leaks (``LIFE*``).

Every pass takes the invocation's one :class:`~repro.analysis.program.Program`.

Findings carry a rule id, slug, severity and ``file:line``; deliberate
violations are silenced in place with ``# oftt-lint: ok[slug]`` comments
(see :mod:`repro.analysis.suppress`).  The rule catalogue lives in
``ANALYSIS.md`` at the repo root.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Rule, Severity, all_rules, rule
from repro.analysis.program import Program, run_passes
from repro.analysis.walker import SourceFile, load_sources

# Importing the pass modules registers their rules, so suppression
# parsing (`is_known`) has the complete catalogue no matter which entry
# point loaded this package.
from repro.analysis import comcheck as _comcheck  # noqa: F401  (registers COM*)
from repro.analysis import determinism as _determinism  # noqa: F401  (registers DET*)
from repro.analysis import effects as _effects  # noqa: F401  (registers RACE1xx/PURE*)
from repro.analysis import races as _races  # noqa: F401  (registers RACE00x)

__all__ = [
    "Finding",
    "Program",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "load_sources",
    "rule",
    "run_passes",
]
