"""Suppression comments: silencing a finding where it is deliberate.

Three forms, all anchored on ``# oftt-lint:``:

* ``# oftt-lint: ok[slug]`` — trailing on a line: suppress the named
  rules (comma-separated slugs or rule ids) for findings on that line.
  On a line of its own, it covers the *next* source line instead, which
  keeps long statements readable.  ``ok`` with no bracket suppresses
  every rule on the line (use sparingly).
* ``# oftt-lint: file-ok[slug,...]`` — anywhere in the file: suppress the
  named rules for the whole file.
* ``# oftt-lint: skip-file`` — exclude the file from analysis entirely.

Unknown rule names in a suppression are themselves reported (GEN002), so
stale annotations cannot silently rot.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity, is_known, rule

BAD_SUPPRESS_RULE = rule(
    "GEN002",
    "bad-suppression",
    Severity.ERROR,
    "gen",
    "Suppression comment names a rule that does not exist.",
)

#: Matches the directive payload after "oftt-lint:".
_DIRECTIVE = re.compile(
    r"#\s*oftt-lint:\s*(?P<verb>ok|file-ok|skip-file)\s*(?:\[(?P<rules>[^\]]*)\])?"
)

#: Sentinel meaning "all rules" in a per-line suppression.
ALL = "*"


@dataclass
class Suppressions:
    """Parsed suppression state for one file."""

    skip_file: bool = False
    file_rules: Set[str] = field(default_factory=set)  # slugs/ids silenced file-wide
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    errors: List[Finding] = field(default_factory=list)  # GEN002 findings

    def allows(self, finding: Finding) -> bool:
        """Whether *finding* survives this file's suppressions."""
        if self.skip_file:
            return False
        tokens = {finding.rule.rule_id, finding.rule.slug}
        if self.file_rules & tokens:
            return False
        line = self.line_rules.get(finding.line, ())
        return not (ALL in line or set(line) & tokens)


def parse_suppressions(path: str, source: str) -> Suppressions:
    """Extract suppression directives from *source* via the tokenizer.

    Using :mod:`tokenize` (not a regex over raw lines) means directives
    inside string literals are ignored, so fixture snippets embedded in
    test files do not suppress anything in the host file.  Every
    directive contains the text ``oftt-lint``, so a source without it is
    not tokenized at all.
    """
    result = Suppressions()
    if "oftt-lint" not in source:
        return result
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return result  # the walker reports the parse failure separately
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(token.string)
        if match is None:
            continue
        verb = match.group("verb")
        had_bracket = match.group("rules") is not None
        names = [name.strip() for name in (match.group("rules") or "").split(",") if name.strip()]
        row, col = token.start
        for name in names:
            if not is_known(name):
                result.errors.append(
                    Finding(BAD_SUPPRESS_RULE, path, row, col, f"unknown rule {name!r} in suppression")
                )
        names = [name for name in names if is_known(name)]
        if verb == "skip-file":
            result.skip_file = True
        elif verb == "file-ok":
            result.file_rules.update(names)
        else:  # ok
            # Trailing comment covers its own line; a standalone comment
            # line covers the next line of code.
            lines = source.splitlines()
            prefix = lines[row - 1][:col].strip() if row - 1 < len(lines) else ""
            target = row + 1 if prefix == "" else row
            bucket = result.line_rules.setdefault(target, set())
            if had_bracket:
                # A bracket whose rules were all unknown suppresses nothing
                # (the GEN002 report above is the only effect).
                bucket.update(names)
            else:
                bucket.add(ALL)
    return result
