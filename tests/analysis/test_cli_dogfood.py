"""CLI contract tests and the dogfood gate.

The dogfood gate is the point of the whole subsystem: the analyzer must
pass over its own repository (``python -m repro.analysis src/repro``
exits 0), and must fail loudly the moment a violation is introduced.
Every invocation runs the one configuration the lint gates run, and the
gate tests below take their arguments from the Makefile's own recipes.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys

import pytest

from repro.analysis.cli import PASSES, build_parser, main

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
ALL_PASSES = "passes: det, com, race, effects, hot, life"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def recipe_args(target):
    """The ``oftt-lint`` arguments of the Makefile's *target* recipe."""
    # oftt-lint: ok[ambient-io] -- the gate's own recipe is the test's input
    with open(os.path.join(REPO_ROOT, "Makefile"), encoding="utf-8") as handle:
        makefile = handle.read()
    recipe = makefile.split(f"\n{target}:\n", 1)[1].split("\n\n", 1)[0]
    return shlex.split(recipe.replace("\\\n", " ").split("-m repro.analysis", 1)[1])


# -- dogfood gate --------------------------------------------------------


def test_repo_is_clean_in_strict_mode(capsys, monkeypatch):
    # `make lint` in-process: src/repro and examples, all six passes,
    # warnings gating.
    monkeypatch.chdir(REPO_ROOT)
    code, out = run_cli(recipe_args("lint"), capsys)
    assert code == 0, f"analysis found violations:\n{out}"
    assert out.startswith("0 finding(s)")
    assert out.rstrip().endswith(ALL_PASSES)


def test_repo_is_clean_via_module_invocation():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert ALL_PASSES in completed.stdout


def test_seeded_violation_flips_the_gate(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("def stamp(kernel):\n    return kernel.now\n", encoding="utf-8")
    assert run_cli([str(tmp_path)], capsys)[0] == 0
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n\n\ndef stamp(kernel):\n    kernel.schedule(time.time(), stamp)\n",
        encoding="utf-8",
    )
    code, out = run_cli([str(tmp_path)], capsys)
    assert code == 1
    assert "DET001" in out


# -- CLI contract --------------------------------------------------------


def test_removed_options_are_usage_errors(capsys):
    assert sorted(vars(build_parser().parse_args([]))) == ["format", "list_rules", "paths", "relax"]
    assert list(PASSES) == ["det", "com", "race", "effects", "hot", "life"]
    for removed in (
        "--passes=det", "--effects", "--hotpath", "--lifecycle", "--strict",
        "--only=LIFE", "--max-k=1", "--hot-manifest=x", "--life-manifest=x", "--json",
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([SRC_REPRO, removed])
        assert exit_info.value.code == 2, removed


def test_missing_path_is_a_usage_error(capsys):
    assert main([os.path.join(REPO_ROOT, "no", "such", "dir")]) == 2


def test_json_output_round_trips(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n\nTOKEN = os.urandom(4)\n", encoding="utf-8")
    code, out = run_cli([str(bad), "--format", "json"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["schema"] == "repro.analysis/v1"
    assert document["passes"] == list(PASSES)
    assert document["counts"]["error"] == 1
    assert document["findings"][0]["rule"] == "DET003"


def test_strict_gates_on_warnings(tmp_path, capsys):
    # A warning alone fails the gate, exactly as an error does.
    racy = tmp_path / "racy.py"
    racy.write_text(
        "class Pump:\n"
        "    def start(self):\n"
        "        self.kernel.schedule(5.0, self._a)\n"
        "        self.kernel.schedule(5.0, self._b)\n"
        "\n"
        "    def _a(self):\n"
        "        self.valve = 1\n"
        "\n"
        "    def _b(self):\n"
        "        self.valve = 2\n",
        encoding="utf-8",
    )
    code, out = run_cli([str(racy)], capsys)
    assert code == 1
    assert "RACE001" in out
    assert "(0 error, 1 warning, 0 info)" in out


def test_list_rules_catalogue(capsys):
    code, out = run_cli(["--list-rules"], capsys)
    assert code == 0
    for rule_id in (
        "DET001", "DET004", "COM001", "COM004", "RACE001", "RACE004",
        "RACE101", "RACE102", "RACE103",
        "PURE001", "PURE002", "PURE003", "PURE004",
        "HOT001", "HOT006",
        "LIFE001", "LIFE002", "LIFE003", "LIFE004", "LIFE005", "LIFE006",
        "GEN001", "GEN002",
    ):
        assert rule_id in out
    # The catalogue is grouped by family for scanability.
    assert "# LIFE" in out


def test_syntax_error_is_reported_not_crashed(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    code, out = run_cli([str(broken)], capsys)
    assert code == 1
    assert "GEN001" in out


# -- per-directory rule profile (--relax) --------------------------------


def _entropy_file(root, name="gen.py"):
    path = root / name
    path.write_text("import os\n\nTOKEN = os.urandom(4)\n", encoding="utf-8")
    return path


def test_relax_downgrades_matching_rules_to_info(tmp_path, capsys):
    _entropy_file(tmp_path)
    code, out = run_cli([str(tmp_path), "--relax", f"{tmp_path}=DET003"], capsys)
    assert code == 0
    assert "info DET003" in out  # still reported, no longer gating


def test_relax_is_scoped_to_the_prefix(tmp_path, capsys):
    inside = tmp_path / "covered"
    outside = tmp_path / "elsewhere"
    inside.mkdir()
    outside.mkdir()
    _entropy_file(inside)
    _entropy_file(outside)
    code, out = run_cli([str(tmp_path), "--relax", f"{inside}=DET003"], capsys)
    assert code == 1  # the un-relaxed copy still gates
    assert out.count("error DET003") == 1
    assert out.count("info DET003") == 1


def test_relax_accepts_slugs_and_is_repeatable(tmp_path, capsys):
    _entropy_file(tmp_path)
    wall = tmp_path / "wall.py"
    wall.write_text("import time\n\n\ndef f(kernel):\n    kernel.schedule(time.time(), f)\n", encoding="utf-8")
    code, out = run_cli(
        [str(tmp_path), "--relax", f"{tmp_path}=entropy", "--relax", f"{tmp_path}=wall-clock"],
        capsys,
    )
    assert code == 0
    assert "info DET003" in out
    assert "info DET001" in out


def test_relax_bad_spec_and_unknown_rule_are_usage_errors(capsys):
    assert main([SRC_REPRO, "--relax", "no-equals-sign"]) == 2
    assert main([SRC_REPRO, "--relax", "src=NOPE999"]) == 2


def test_tests_tree_is_clean_under_the_test_profile(capsys, monkeypatch):
    # `make lint-tests` in-process: the recipe's own paths and --relax
    # specs (the ambient DET and PURE rules for tests/, the race and
    # lifecycle families for the planted-defect corpus).
    args = recipe_args("lint-tests")
    assert args[0] == "tests" and args.count("--relax") == 2
    monkeypatch.chdir(REPO_ROOT)
    code, out = run_cli(args, capsys)
    assert code == 0, f"tests/ lint failed under the relaxed profile:\n{out}"
    assert out.rstrip().endswith(ALL_PASSES)
