"""Corpus gate for the lifecycle pass (LIFE001-LIFE006).

Every ``life00X_planted.py`` under ``tests/analysis/corpus/`` must
produce exactly one lifecycle finding — the rule id and line named by
its ``# expect: RULEID`` marker — and every ``life00X_clean.py`` twin
must produce none.  The corpus runs under the shipped default manifest:
acquire matching is name-based (``schedule``/``watch``/``subscribe``/
``create_process``), so the corpus classes need no imports.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.analysis import lifecycle
from repro.analysis.program import run_passes
from repro.analysis.walker import load_sources

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
MARKER = re.compile(r"#\s*expect:\s*(LIFE\d+)")

PLANTED = sorted(f for f in os.listdir(CORPUS) if f.startswith("life") and f.endswith("_planted.py"))
CLEAN = sorted(f for f in os.listdir(CORPUS) if f.startswith("life") and f.endswith("_clean.py"))


def life_findings(name):
    files, load_findings = load_sources([os.path.join(CORPUS, name)])
    assert load_findings == [], f"{name} failed to load cleanly"
    return run_passes(files, [lifecycle.run])


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
    assert planted_rules == {"LIFE001", "LIFE002", "LIFE003", "LIFE004", "LIFE005", "LIFE006"}
    # every planted file has a clean twin
    assert [n.replace("_clean", "_planted") for n in CLEAN] == PLANTED


@pytest.mark.parametrize("name", PLANTED)
def test_planted_defect_is_flagged_exactly(name):
    rule_id, line = expected_marker(name)
    found = [(f.rule.rule_id, f.line) for f in life_findings(name)]
    assert found == [(rule_id, line)]


@pytest.mark.parametrize("name", CLEAN)
def test_clean_twin_is_quiet(name):
    assert life_findings(name) == []
