"""Golden digests of the whole-program passes' corpus findings.

The corpus gates (``test_*_corpus.py``) compare only ``(rule, line)``,
so a change that rewrote a propagation route ("hot via A -> B") or a
release-search summary would still pass them.  This test pins every
field of every corpus finding: ``RULE|file basename|line|col|message``.

Each corpus file is loaded alone, in sorted name order, and goes through
one pass: ``hot*`` with ``<module>:Hot.run`` as its only root, ``life*``
under the shipped lifecycle manifest, ``pure*`` and ``race*`` through
the effects pass.  Rows keep ``Finding.sort_key`` order within each
file; the digest is the first 16 hex digits of the sha256 of the rows
joined by newlines.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.analysis import effects, hotpath, lifecycle
from repro.analysis.hotpath import RootSpec
from repro.analysis.program import run_passes
from repro.analysis.walker import load_sources

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

#: pass -> (digest, finding count), recorded before the passes shared a
#: propagation core.  ``life`` was re-recorded when life004's planted
#: subscription moved from a trace log to a queue: its LIFE004 message
#: names the receiver (``self.queue.subscribe()``, was
#: ``self.trace.subscribe()``), and every other field of every row is
#: unchanged.
GOLDEN = {
    "effects": ("66a37680ebc38ac6", 7),
    "hot": ("f0d2ddf9a05e12d8", 6),
    "life": ("b20bf016c9f9525b", 6),
}


def _pass_for(name):
    if name.startswith("hot"):
        roots = [RootSpec(name[: -len(".py")], "Hot.run")]
        return "hot", lambda program: hotpath.run_with_roots(program, roots)
    if name.startswith("life"):
        return "life", lifecycle.run
    return "effects", effects.run


def _corpus_rows():
    rows = {name: [] for name in GOLDEN}
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".py"):
            continue
        files, load_findings = load_sources([os.path.join(CORPUS, name)])
        assert load_findings == [], f"{name} failed to load cleanly"
        which, one_pass = _pass_for(name)
        for finding in run_passes(files, [one_pass]):
            rows[which].append(
                f"{finding.rule.rule_id}|{os.path.basename(finding.path)}|"
                f"{finding.line}|{finding.col}|{finding.message}"
            )
    return rows


@pytest.mark.parametrize("which", sorted(GOLDEN))
def test_corpus_findings_match_golden(which):
    rows = _corpus_rows()[which]
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()[:16]
    assert (digest, len(rows)) == GOLDEN[which], "\n".join(rows)
