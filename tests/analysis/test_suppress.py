"""Self-tests for suppression comments and reporter stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.analysis import determinism, races
from repro.analysis.findings import Severity
from repro.analysis.report import JSON_SCHEMA, render_json, render_text, severity_counts
from repro.analysis.walker import load_sources

from tests.analysis.util import analyze, make_file, rule_ids

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

VIOLATION = """
import time

def stamp():
    return time.time()
"""


# -- suppression forms ---------------------------------------------------


def test_trailing_ok_suppresses_that_line():
    findings = analyze(
        """
        import time

        def stamp():
            return time.time()  # oftt-lint: ok[wall-clock]
        """,
        determinism.run,
    )
    assert findings == []


def test_standalone_ok_covers_next_line():
    findings = analyze(
        """
        import time

        def stamp():
            # oftt-lint: ok[wall-clock]
            return time.time()
        """,
        determinism.run,
    )
    assert findings == []


def test_ok_accepts_rule_id_and_bare_ok_suppresses_all():
    findings = analyze(
        """
        import time

        def stamp():
            return time.time()  # oftt-lint: ok[DET001]

        def stamp2():
            return time.time()  # oftt-lint: ok
        """,
        determinism.run,
    )
    assert findings == []


def test_ok_does_not_leak_to_other_lines_or_rules():
    findings = analyze(
        """
        import time

        def stamp():
            return time.time()  # oftt-lint: ok[unseeded-random]

        def stamp2():
            return time.time()
        """,
        determinism.run,
    )
    assert rule_ids(findings) == ["DET001", "DET001"]


def test_file_ok_suppresses_rule_file_wide_only():
    findings = analyze(
        """
        # oftt-lint: file-ok[wall-clock]
        import random
        import time

        def stamp():
            return time.time(), time.monotonic(), random.random()
        """,
        determinism.run,
    )
    assert rule_ids(findings) == ["DET002"]  # random survives, clocks do not


def test_skip_file_drops_every_finding():
    source_file = make_file(
        """
        # oftt-lint: skip-file
        import time

        def stamp():
            return time.time()
        """
    )
    assert source_file.suppressions.skip_file


def test_unknown_rule_in_suppression_is_reported():
    findings = analyze(
        """
        import time

        def stamp():
            return time.time()  # oftt-lint: ok[no-such-rule]
        """,
        determinism.run,
    )
    # GEN002 for the bad annotation AND the original DET001 still fires.
    assert sorted(rule_ids(findings)) == ["DET001", "GEN002"]


def test_misspelled_rule_in_a_skipped_file_still_surfaces(tmp_path):
    # Regression (GEN002): load_sources used to drop skip-file'd files
    # together with their own suppression errors, so a misspelled rule
    # in a standalone file-ok comment rotted silently.
    skipped = tmp_path / "skipped.py"
    skipped.write_text(
        "# oftt-lint: skip-file\n"
        "# oftt-lint: file-ok[RACE110]\n"
        "import time\n",
        encoding="utf-8",
    )
    files, findings = load_sources([str(skipped)])
    assert files == []  # still excluded from every pass
    assert rule_ids(findings) == ["GEN002"]
    assert "RACE110" in findings[0].message


def test_directive_inside_string_literal_is_inert():
    findings = analyze(
        """
        import time

        FIXTURE = "# oftt-lint: file-ok[wall-clock]"

        def stamp():
            return time.time()
        """,
        determinism.run,
    )
    assert rule_ids(findings) == ["DET001"]


# -- reporters -----------------------------------------------------------


def test_json_schema_is_stable():
    findings = analyze(VIOLATION, determinism.run)
    document = json.loads(render_json(findings, files_scanned=1, passes=["det"]))
    assert document["schema"] == JSON_SCHEMA == "repro.analysis/v1"
    assert set(document) == {"schema", "passes", "files", "counts", "findings"}
    assert document["counts"] == {"error": 1, "warning": 0, "info": 0}
    entry = document["findings"][0]
    assert set(entry) == {"rule", "slug", "severity", "pass", "path", "line", "col", "message"}
    assert entry["rule"] == "DET001"
    assert entry["slug"] == "wall-clock"
    assert entry["severity"] == "error"
    assert entry["line"] == 5


def test_text_report_format_and_summary():
    findings = analyze(VIOLATION, determinism.run)
    text = render_text(findings, files_scanned=1, passes=["det"])
    first, summary = text.splitlines()
    assert first.startswith("snippet.py:5:")
    assert "error DET001[wall-clock]" in first
    assert summary == "1 finding(s) (1 error, 0 warning, 0 info) in 1 file(s); passes: det"


def test_severity_counts_cover_warnings():
    findings = analyze(
        """
        class Pump:
            def start(self):
                self.kernel.schedule(5.0, self._a)
                self.kernel.schedule(5.0, self._b)

            def _a(self):
                self.valve = 1

            def _b(self):
                self.valve = 2
        """,
        races.run,
    )
    assert [f.severity for f in findings] == [Severity.WARNING]
    assert severity_counts(findings) == {"error": 0, "warning": 1, "info": 0}


def test_library_caller_knows_every_rule_slug():
    # A fresh interpreter that imports only the package and one pass must
    # still know the hot/life slugs that src/repro's suppressions name;
    # an unknown slug would surface as a GEN002 bad-suppression error.
    script = (
        "import sys\n"
        "sys.path.insert(0, 'src')\n"
        "from repro.analysis import determinism, load_sources, run_passes\n"
        "files, _ = load_sources(['src/repro'])\n"
        "print(sorted({f.rule.rule_id for f in run_passes(files, [determinism.run])}))\n"
    )
    completed = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[]\n"
