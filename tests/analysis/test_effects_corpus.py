"""Corpus gate for the effects pass (wired into ``make verify`` via test).

Every ``*_planted.py`` file under ``tests/analysis/corpus/`` must
produce exactly one effects finding — the rule id and line named by its
``# expect: RULEID`` marker — and every ``*_clean.py`` twin must produce
none.  A change to the call graph or summary propagation that weakens
(or over-triggers) any rule fails here with the offending file named.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.analysis import effects
from repro.analysis.program import run_passes
from repro.analysis.walker import load_sources

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
MARKER = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")

# ``hot00X_*`` files belong to the hotpath pass (gated by
# tests/analysis/test_hotpath_corpus.py with their own root convention)
# and ``life00X_*`` files to the lifecycle pass (gated by
# tests/analysis/test_lifecycle_corpus.py under the default manifest).
PLANTED = sorted(
    f
    for f in os.listdir(CORPUS)
    if f.endswith("_planted.py") and not f.startswith(("hot", "life"))
)
CLEAN = sorted(
    f
    for f in os.listdir(CORPUS)
    if f.endswith("_clean.py") and not f.startswith(("hot", "life"))
)


def effects_findings(name):
    files, load_findings = load_sources([os.path.join(CORPUS, name)])
    assert load_findings == [], f"{name} failed to load cleanly"
    return run_passes(files, [effects.run])


def expected_marker(name):
    """(rule_id, line) from the file's single ``# expect:`` marker."""
    with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as handle:
        hits = [
            (match.group(1), lineno)
            for lineno, line in enumerate(handle, start=1)
            for match in [MARKER.search(line)]
            if match
        ]
    assert len(hits) == 1, f"{name} must carry exactly one expect marker"
    return hits[0]


def test_corpus_is_complete():
    planted_rules = {expected_marker(name)[0] for name in PLANTED}
    assert planted_rules == {
        "RACE101", "RACE102", "RACE103",
        "PURE001", "PURE002", "PURE003", "PURE004",
    }
    # every planted file has a clean twin
    assert [n.replace("_clean", "_planted") for n in CLEAN] == PLANTED


@pytest.mark.parametrize("name", PLANTED)
def test_planted_defect_is_flagged_exactly(name):
    rule_id, line = expected_marker(name)
    found = [(f.rule.rule_id, f.line) for f in effects_findings(name)]
    assert found == [(rule_id, line)]


@pytest.mark.parametrize("name", CLEAN)
def test_clean_twin_stays_clean(name):
    assert effects_findings(name) == []
