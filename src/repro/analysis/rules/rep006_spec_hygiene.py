"""REP006 — temporal specs must name an owner and bound their obligations.

A runtime-verification spec is a *contract*, and a contract nobody owns
is noise: when ``verify`` flags a mission at 3 a.m., the violation
report routes to ``spec.owner`` — an anonymous spec has nowhere to
route. Likewise an unbounded ``response(trigger, reply)`` (no
``within=``) can never fire while the mission runs: the obligation only
collapses at ``finish()``, by which time the aircraft has landed. Both
shapes typecheck and run, which is exactly why they need a lint.

The rule fires on modules that import from :mod:`repro.verify` (missions,
examples, test suites, the shipped library alike) when they

- call ``Spec(...)`` without an ``owner=`` keyword, or with a literal
  empty/blank owner, or
- call ``response(...)`` without a ``within=`` bound (a deadline of
  ``None`` counts as unbounded).

Aliased imports (``from repro.verify import response as must_reply``)
are tracked; calls through other names or attribute paths that never
touch ``repro.verify`` stay out of scope. Waive per line with a
justified ``# repro: allow[REP006]`` — e.g. a liveness spec that is
*intentionally* open-ended and checked only at mission teardown.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Names whose call sites the rule inspects, keyed by the verify-module
#: symbol they alias.
_WATCHED = ("Spec", "response")


def _verify_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local alias → verify symbol, for ``Spec``/``response`` imported from
    repro.verify (or a submodule). Empty when the module never imports them.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.module != "repro.verify" and not node.module.startswith(
            "repro.verify."
        ):
            continue
        for name in node.names:
            if name.name in _WATCHED:
                aliases[name.asname or name.name] = name.name
    return aliases


def _keyword(call: ast.Call, name: str) -> Optional[ast.keyword]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


def _is_blank_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None
        or (isinstance(node.value, str) and not node.value.strip())
    )


@register
class SpecHygieneRule(Rule):
    code = "REP006"
    summary = (
        "temporal specs must carry an owner= and response() a within= "
        "bound — anonymous or unbounded obligations are unactionable"
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        aliases = _verify_aliases(file.tree)
        if not aliases:
            return
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Name
            ):
                continue
            symbol = aliases.get(node.func.id)
            if symbol == "Spec":
                owner = _keyword(node, "owner")
                # Positional owner (2nd arg) satisfies the contract unless
                # it is a blank literal.
                positional = node.args[1] if len(node.args) > 1 else None
                if owner is None and positional is None:
                    yield self._finding(
                        file,
                        node,
                        "spec declared without owner= — violations route "
                        "to the owner; name the team or service on the "
                        "hook for this contract",
                    )
                else:
                    value = owner.value if owner is not None else positional
                    if _is_blank_literal(value):
                        yield self._finding(
                            file,
                            node,
                            "spec owner is blank — name a real owner so "
                            "the violation report is actionable",
                        )
            elif symbol == "response":
                within = _keyword(node, "within")
                if within is None and len(node.args) < 3:
                    yield self._finding(
                        file,
                        node,
                        "unbounded response() — without within= the "
                        "obligation only collapses at finish(), after the "
                        "mission; give the reply a deadline",
                    )
                elif within is not None and _is_blank_literal(within.value):
                    yield self._finding(
                        file,
                        node,
                        "response(within=None) is unbounded — give the "
                        "reply a finite deadline",
                    )

    def _finding(self, file: SourceFile, node: ast.Call, message: str) -> Finding:
        return Finding(
            rule=self.code,
            message=message,
            file=file.rel,
            line=node.lineno,
            column=node.col_offset,
        )


__all__ = ["SpecHygieneRule"]
