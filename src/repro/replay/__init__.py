"""Dynamic replay-divergence checking (the runtime counterpart to
:mod:`repro.analysis`).

The static linter flags *patterns* that tend to produce nondeterminism;
this package proves (or disproves) determinism dynamically: run a
scenario twice with the same seed, canonicalize both trace logs, and
diff them event-by-event.  The first divergence — time, component,
event, detail delta, plus surrounding context from both runs — is the
bug report.

Entry points:

* :func:`repro.replay.runner.run_twice_and_diff` — programmatic API.
* ``python -m repro.replay`` / ``oftt-replay`` — CLI with text and JSON
  (``repro.replay/v1``) reporters; ``--gate`` is the ``make verify``
  hook.
"""

from repro.replay.canonical import CanonicalEvent, canonicalize_trace
from repro.replay.diff import Divergence, FieldDelta, first_divergence
from repro.replay.runner import (
    ReplayResult,
    RoundTripResult,
    checkpoint_roundtrip,
    run_twice_and_diff,
)

__all__ = [
    "CanonicalEvent",
    "canonicalize_trace",
    "Divergence",
    "FieldDelta",
    "first_divergence",
    "ReplayResult",
    "RoundTripResult",
    "checkpoint_roundtrip",
    "run_twice_and_diff",
]
