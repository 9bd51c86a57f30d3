"""Command-line driver: ``python -m repro.analysis`` / ``oftt-lint``.

Every invocation runs the one configuration the lint gates run: all six
passes (det, com, race, effects, hot, life) over one
:class:`~repro.analysis.program.Program`, with the shipped hot-root and
lifecycle manifests and the propagation bound
:data:`~repro.analysis.callgraph.DEFAULT_MAX_K`.

Exit-code contract (relied on by ``make verify`` and the dogfood test):

* ``0`` — no gating findings (errors and warnings gate; info does not)
* ``1`` — at least one gating finding
* ``2`` — usage or internal error (bad path, bad ``--relax`` spec,
  unknown option)

Examples::

    python -m repro.analysis src/repro examples       # the make-lint gate
    python -m repro.analysis src/repro --format json  # machine output
    python -m repro.analysis tests --relax tests=DET002,DET006
    oftt-lint --list-rules

``--relax PREFIX=RULE[,RULE...]`` (repeatable) is the per-directory rule
profile: findings for the named rules in files under ``PREFIX`` are
downgraded to ``info`` so they never gate.  Tests legitimately draw
module-level randomness and read the environment (property-style test
generators, CLI fixtures), so ``make lint-tests`` relaxes the ambient
DET rules for ``tests/`` while keeping everything else at full strength.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import comcheck, determinism, effects, hotpath, lifecycle, races
from repro.analysis.findings import AnalysisError, Finding, Severity, all_rules, lookup
from repro.analysis.program import Pass, run_passes
from repro.analysis.report import render_json, render_text
from repro.analysis.walker import load_sources

#: The passes every invocation runs, in execution order, over the one
#: :class:`~repro.analysis.program.Program` of the invocation.
PASSES: Dict[str, Pass] = {
    "det": determinism.run,
    "com": comcheck.run,
    "race": races.run,
    "effects": effects.run,
    "hot": hotpath.run,
    "life": lifecycle.run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-lint",
        description="Determinism, COM-contract, race, hot-path and lifecycle lint: "
                    "all six passes run, and warnings gate.",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--relax", action="append", default=[], metavar="PREFIX=RULES",
                        help="downgrade the named rules to info for files under PREFIX "
                             "(repeatable, e.g. --relax tests=DET002,DET006)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def parse_relaxations(specs: Sequence[str]) -> List[Tuple[str, Set[str]]]:
    """Parse ``PREFIX=RULE[,RULE...]`` specs into (prefix, rule-id set) pairs.

    Rules may be named by id (``DET002``) or slug (``unseeded-random``);
    unknown names are a usage error so a typo cannot silently relax
    nothing.
    """
    relaxations: List[Tuple[str, Set[str]]] = []
    for spec in specs:
        prefix, sep, names = spec.partition("=")
        rule_tokens = [token.strip() for token in names.split(",") if token.strip()]
        if not sep or not prefix.strip() or not rule_tokens:
            raise AnalysisError(f"bad --relax spec {spec!r}; expected PREFIX=RULE[,RULE...]")
        relaxations.append(
            (os.path.normpath(prefix.strip()), {lookup(token).rule_id for token in rule_tokens})
        )
    return relaxations


def _under(path: str, prefix: str) -> bool:
    normalized = os.path.normpath(path)
    return normalized == prefix or normalized.startswith(prefix + os.sep)


def apply_relaxations(
    findings: Sequence[Finding], relaxations: Sequence[Tuple[str, Set[str]]]
) -> List[Finding]:
    """Downgrade relaxed findings to INFO; everything else passes through."""
    relaxed: List[Finding] = []
    for finding in findings:
        for prefix, rule_ids in relaxations:
            if finding.rule.rule_id in rule_ids and _under(finding.path, prefix):
                finding = dataclasses.replace(
                    finding,
                    rule=dataclasses.replace(finding.rule, severity=Severity.INFO),
                )
                break
        relaxed.append(finding)
    return relaxed


def rule_family(rule_id: str) -> str:
    """Leading alphabetic prefix of a rule id (``LIFE003`` -> ``LIFE``)."""
    alpha = 0
    while alpha < len(rule_id) and rule_id[alpha].isalpha():
        alpha += 1
    return rule_id[:alpha]


def list_rules() -> str:
    lines: List[str] = []
    family = None
    for entry in all_rules():
        if rule_family(entry.rule_id) != family:
            if family is not None:
                lines.append("")
            family = rule_family(entry.rule_id)
            lines.append(f"# {family}")
        lines.append(f"{entry.rule_id}  {entry.slug:24s} {str(entry.severity):8s} [{entry.pass_name}] {entry.summary}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    if options.list_rules:
        print(list_rules())
        return 0
    try:
        relaxations = parse_relaxations(options.relax)
        files, load_findings = load_sources(options.paths)
    except AnalysisError as exc:
        print(f"oftt-lint: {exc}", file=sys.stderr)
        return 2

    findings = run_passes(files, list(PASSES.values()))
    findings = sorted(load_findings + findings, key=lambda f: f.sort_key())
    findings = apply_relaxations(findings, relaxations)

    if options.format == "json":
        sys.stdout.write(render_json(findings, len(files), list(PASSES)))
    else:
        print(render_text(findings, len(files), list(PASSES)))

    return 1 if any(f.severity >= Severity.WARNING for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
