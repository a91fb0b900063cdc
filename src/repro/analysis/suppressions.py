"""Inline suppression comments.

Two forms, both requiring a justification after ``--``:

- line scope, trailing the flagged line (or on a comment line directly
  above it)::

      time.sleep(poll)  # repro: allow[REP004] -- wall-clock polling bridge

- file scope, anywhere in the file (conventionally in the module
  docstring's wake)::

      # repro: allow-file[REP002] -- this module IS the wall-clock runtime

A suppression without justification does not suppress anything; it is
itself reported as REP000 so bare waivers cannot accumulate. Unused
suppressions are reported as warnings (they do not gate CI but show up in
the report for garbage collection).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding

#: Meta-rule code for malformed suppressions.
META_RULE = "REP000"

_PATTERN = re.compile(
    r"#\s*repro:\s*allow(?P<scope>-file)?\[(?P<codes>[A-Za-z0-9*,\s]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass
class Suppression:
    codes: Tuple[str, ...]
    line: int  # the source line the comment covers (file scope: 0)
    justification: str
    used: bool = False

    def matches(self, rule: str) -> bool:
        return "*" in self.codes or rule in self.codes


@dataclass
class SuppressionSet:
    """All suppressions of one file, indexed for the engine."""

    by_line: Dict[int, List[Suppression]] = field(default_factory=dict)
    file_wide: List[Suppression] = field(default_factory=list)

    def apply(self, rule: str, line: int) -> Optional[Suppression]:
        """The suppression covering (rule, line), or None. Marks it used."""
        for suppression in self.by_line.get(line, ()):
            if suppression.matches(rule):
                suppression.used = True
                return suppression
        for suppression in self.file_wide:
            if suppression.matches(rule):
                suppression.used = True
                return suppression
        return None

    def all(self) -> List[Suppression]:
        out = list(self.file_wide)
        for entries in self.by_line.values():
            out.extend(entries)
        return out


def collect(source: str, rel_path: str) -> Tuple[SuppressionSet, List[Finding]]:
    """Parse every suppression comment in ``source``.

    Returns the usable suppressions plus REP000 findings for malformed
    ones (missing justification).
    """
    suppressions = SuppressionSet()
    problems: List[Finding] = []
    lines = source.splitlines()
    for lineno, text, comment_only in _comments(source):
        match = _PATTERN.search(text)
        if match is None:
            continue
        why = (match.group("why") or "").strip()
        if not why:
            problems.append(
                Finding(
                    rule=META_RULE,
                    message=(
                        "suppression without justification: write "
                        "`# repro: allow[CODE] -- <why this is intentional>`"
                    ),
                    file=rel_path,
                    line=lineno,
                )
            )
            continue
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if match.group("scope"):
            suppressions.file_wide.append(
                Suppression(codes=codes, line=0, justification=why)
            )
            continue
        # A comment-only line covers the next *code* line (the comment may
        # wrap over several lines); a trailing comment covers its own line.
        target = lineno
        if comment_only:
            target = lineno + 1
            while target <= len(lines) and (
                not lines[target - 1].strip()
                or lines[target - 1].lstrip().startswith("#")
            ):
                target += 1
        suppressions.by_line.setdefault(target, []).append(
            Suppression(codes=codes, line=target, justification=why)
        )
    return suppressions, problems


def _comments(source: str) -> List[Tuple[int, str, bool]]:
    """``(line, comment_text, is_comment_only_line)`` for every real comment.

    Tokenizing (instead of regex over raw lines) keeps suppression syntax
    shown inside docstrings — like the examples above — inert.
    """
    out: List[Tuple[int, str, bool]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out  # unparseable files are reported by the engine already
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comment_only = token.line[: token.start[1]].strip() == ""
            out.append((token.start[0], token.string, comment_only))
    return out


__all__ = ["Suppression", "SuppressionSet", "collect", "META_RULE"]
