"""Pluggable rule registry.

A rule is a class with a ``code``, a one-line ``summary`` and a
``check_file(file)`` that walks one module and yields findings. Every rule
is a single local pass: it sees one :class:`SourceFile` at a time, never
the rest of the tree. Registration is declarative::

    @register
    class MyRule(Rule):
        code = "REP999"
        summary = "what it enforces"

The engine applies suppressions afterwards; rules just yield findings.
Retired codes (REP003, REP007, REP008) are not reused.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding


class Rule:
    """Base class for checker rules."""

    code: str = "REP???"
    summary: str = ""

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    if rule_class.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, ordered by code."""
    _load_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def _load_builtin_rules() -> None:
    # Import for the registration side effect; idempotent.
    from repro.analysis.rules import (  # noqa: F401
        rep001_transport,
        rep002_nondeterminism,
        rep004_blocking,
        rep005_decode_paths,
        rep006_spec_hygiene,
    )


__all__ = ["Rule", "register", "all_rules"]
