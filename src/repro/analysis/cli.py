"""Command-line driver: ``python -m repro.analysis`` / ``oftt-lint``.

Exit-code contract (relied on by ``make verify`` and the dogfood test):

* ``0`` — no gating findings (errors; plus warnings under ``--strict``)
* ``1`` — at least one gating finding
* ``2`` — usage or internal error (bad path, unknown pass)

Examples::

    python -m repro.analysis src/repro                # default passes, text
    python -m repro.analysis src/repro --effects      # + interprocedural effects
    python -m repro.analysis src/repro --format json  # machine output
    python -m repro.analysis src examples --passes det,race --strict
    python -m repro.analysis src tests --relax tests=DET002,DET006
    python -m repro.analysis src/repro --effects --max-k 1   # cheaper fixpoint
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
import functools
import os
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import comcheck, determinism, effects, hotpath, lifecycle, races
from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import AnalysisError, Finding, Severity, all_rules, lookup
from repro.analysis.program import Pass, run_passes
from repro.analysis.report import render_json, render_text
from repro.analysis.walker import load_sources

#: Registered passes, in execution order.  ``effects``, ``hot`` and
#: ``life`` are opt-in via ``--effects``/``--hotpath``/``--lifecycle``
#: (or explicit ``--passes`` entries) because they are whole-program
#: passes; ``make lint`` turns all three on.  Every pass takes the one
#: :class:`~repro.analysis.program.Program` of the invocation, which
#: carries ``--max-k``; ``main`` binds the manifest options onto the
#: ``hot`` and ``life`` entries.
PASSES: Dict[str, Pass] = {
    "det": determinism.run,
    "com": comcheck.run,
    "race": races.run,
    "effects": effects.run,
    "hot": hotpath.run,
    "life": lifecycle.run,
}

#: Passes run when ``--passes`` is not given.
DEFAULT_PASSES = "det,com,race"

#: Rule-id family prefix -> passes that can emit it, for ``--only``.
#: GEN findings (syntax/suppression hygiene) always pass the filter.
FAMILIES: Dict[str, Tuple[str, ...]] = {
    "GEN": (),
    "DET": ("det",),
    "COM": ("com",),
    "RACE": ("race", "effects"),
    "PURE": ("effects",),
    "HOT": ("hot",),
    "LIFE": ("life",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-lint",
        description="Determinism linter, COM contract checker, and sim race detector.",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse (default: src/repro)")
    parser.add_argument("--passes", default=DEFAULT_PASSES, metavar="NAMES",
                        help="comma-separated subset of det,com,race,effects,hot,life "
                             f"(default: {DEFAULT_PASSES})")
    parser.add_argument("--effects", action="store_true",
                        help="also run the interprocedural effects pass "
                             "(RACE101-103 handler races, PURE001-004 parallel_map purity)")
    parser.add_argument("--hotpath", action="store_true",
                        help="also run the hot-path pass (HOT001-006 per-event waste "
                             "in functions reachable from the hot-root manifest)")
    parser.add_argument("--hot-manifest", default=None, metavar="PATH",
                        help="hot-root manifest for the hotpath pass "
                             "(default: the checked-in repro/analysis/hotpath.manifest)")
    parser.add_argument("--lifecycle", action="store_true",
                        help="also run the resource-lifecycle pass (LIFE001-006 "
                             "acquire/release leaks against the lifecycle manifest)")
    parser.add_argument("--life-manifest", default=None, metavar="PATH",
                        help="acquire/release manifest for the lifecycle pass "
                             "(default: the checked-in repro/analysis/lifecycle.manifest)")
    parser.add_argument("--only", default=None, metavar="FAMILIES",
                        help="restrict to the named rule families, e.g. --only LIFE,HOT: "
                             "runs exactly the passes those families need and reports "
                             "only their findings (plus GEN hygiene)")
    parser.add_argument("--max-k", type=int, default=DEFAULT_MAX_K, metavar="N",
                        help="propagation depth for the effects/hot/life passes: effects, "
                             "hotness and teardown release searches follow at most N call "
                             f"hops (default: {DEFAULT_MAX_K})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--json", action="store_const", const="json", dest="format",
                        help="shorthand for --format json")
    parser.add_argument("--strict", action="store_true",
                        help="warnings gate the exit code too")
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


def parse_only(spec: str) -> Set[str]:
    """Parse ``--only LIFE,HOT`` into a family set; typos are usage errors."""
    families = {token.strip().upper() for token in spec.split(",") if token.strip()}
    if not families:
        raise AnalysisError(f"bad --only spec {spec!r}; expected FAMILY[,FAMILY...]")
    unknown = sorted(families - set(FAMILIES))
    if unknown:
        raise AnalysisError(
            f"unknown rule family {', '.join(unknown)} (choose from {', '.join(sorted(FAMILIES))})"
        )
    return families


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
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(list_rules())
        return 0

    pass_names = [name.strip() for name in options.passes.split(",") if name.strip()]
    if options.effects and "effects" not in pass_names:
        pass_names.append("effects")
    if options.hotpath and "hot" not in pass_names:
        pass_names.append("hot")
    if options.lifecycle and "life" not in pass_names:
        pass_names.append("life")
    try:
        if options.max_k < 0:
            raise AnalysisError(f"--max-k must be >= 0, got {options.max_k}")
        only_families: Optional[Set[str]] = None
        if options.only is not None:
            # Run exactly the passes the selected families need, in the
            # canonical PASSES order, regardless of other flags.
            only_families = parse_only(options.only)
            needed = {name for family in only_families for name in FAMILIES[family]}
            pass_names = [name for name in PASSES if name in needed]
        bound: Dict[str, Dict[str, object]] = {
            "hot": {"manifest_path": options.hot_manifest},
            "life": {"manifest_path": options.life_manifest},
        }
        passes: List[Pass] = []
        for name in pass_names:
            if name not in PASSES:
                raise AnalysisError(f"unknown pass {name!r} (choose from {', '.join(PASSES)})")
            passes.append(functools.partial(PASSES[name], **bound.get(name, {})))
        relaxations = parse_relaxations(options.relax)
        files, load_findings = load_sources(options.paths or ["src/repro"])
    except AnalysisError as exc:
        print(f"oftt-lint: {exc}", file=sys.stderr)
        return 2

    findings = run_passes(files, passes, options.max_k)
    findings = sorted(load_findings + findings, key=lambda f: f.sort_key())
    findings = apply_relaxations(findings, relaxations)
    if only_families is not None:
        keep = only_families | {"GEN"}
        findings = [f for f in findings if rule_family(f.rule.rule_id) in keep]

    if options.format == "json":
        sys.stdout.write(render_json(findings, len(files), pass_names))
    else:
        print(render_text(findings, len(files), pass_names))

    gate = Severity.WARNING if options.strict else Severity.ERROR
    return 1 if any(f.severity >= gate for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
