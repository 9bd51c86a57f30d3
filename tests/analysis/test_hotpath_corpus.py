"""Corpus gate for the hotpath pass (HOT001-HOT006).

Every ``hot00X_planted.py`` under ``tests/analysis/corpus/`` must produce
exactly one hot finding — the rule id and line named by its
``# expect: RULEID`` marker — and every ``hot00X_clean.py`` twin must
produce none, under the corpus root convention: each corpus module
declares ``Hot.run`` as its only hot root.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.analysis import hotpath
from repro.analysis.hotpath import RootSpec
from repro.analysis.program import run_passes
from repro.analysis.walker import load_sources

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
MARKER = re.compile(r"#\s*expect:\s*(HOT\d+)")

PLANTED = sorted(f for f in os.listdir(CORPUS) if f.startswith("hot") and f.endswith("_planted.py"))
CLEAN = sorted(f for f in os.listdir(CORPUS) if f.startswith("hot") and f.endswith("_clean.py"))


def hot_findings(name):
    files, load_findings = load_sources([os.path.join(CORPUS, name)])
    assert load_findings == [], f"{name} failed to load cleanly"
    roots = [RootSpec(name[: -len(".py")], "Hot.run")]
    return run_passes(files, [lambda program: hotpath.run_with_roots(program, roots)])


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
    assert planted_rules == {"HOT001", "HOT002", "HOT003", "HOT004", "HOT005", "HOT006"}
    # every planted file has a clean twin
    assert [n.replace("_clean", "_planted") for n in CLEAN] == PLANTED


@pytest.mark.parametrize("name", PLANTED)
def test_planted_defect_is_flagged_exactly(name):
    rule_id, line = expected_marker(name)
    found = [(f.rule.rule_id, f.line) for f in hot_findings(name)]
    assert found == [(rule_id, line)]


@pytest.mark.parametrize("name", CLEAN)
def test_clean_twin_stays_clean(name):
    assert hot_findings(name) == []
