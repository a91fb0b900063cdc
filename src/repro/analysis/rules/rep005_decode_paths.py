"""REP005 — decode errors must be counted, never silently swallowed.

The admission layer can only quarantine an abusive source if every
frame-decode path *reports* its rejections: a handler that catches
``ProtocolError``/``EncodingError`` (or kin) and does nothing hides
hostile traffic from the defenses and from the operator. Garbage then
costs CPU forever without tripping a counter, a quarantine, or a flight
record — exactly the blind spot a :class:`GarbageFrameInjector` exploits.

A decode-error handler must therefore either re-raise (let a layer above
account for it) or route the rejection into the accounting surface:
``note_malformed``/``note_malformed_address`` on the admission
controller, a metrics ``counter``, a recorder entry, or one of the
``malformed_*``/abuse tallies. The canonical good shape is
``Container._ingest_data``::

    except (ProtocolError, EncodingError) as exc:
        self.note_malformed(frame, exc)

Scope: every ``repro/`` module. Waive per line with a justified
``# repro: allow[REP005]`` where swallowing is genuinely correct.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Exception names whose catch sites are frame/payload decode paths.
_DECODE_ERRORS = {
    "ProtocolError",
    "EncodingError",
    "DecodeError",
    "JSONDecodeError",
    "UnicodeDecodeError",
    "struct.error",
}

#: A call or tally touching any of these routes the rejection into the
#: accounting surface (admission counters, quarantine, flight recorder).
_ACCOUNTING = re.compile(
    r"malformed|quarantine|admission|admit|abuse|counter|metric|record"
    r"|reject|drop|protocol_error|note_",
    re.IGNORECASE,
)


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an expression (``struct.error``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["<bare>"]
    if isinstance(handler.type, ast.Tuple):
        return [_dotted(elt) for elt in handler.type.elts]
    return [_dotted(handler.type)]


def _terminal_name(node: ast.expr) -> str:
    """The rightmost identifier of a call target or assign target."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _accounts_for_rejection(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or feeds an accounting sink."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and _ACCOUNTING.search(
            _terminal_name(node.func)
        ):
            return True
        # Tallies kept as plain attributes: ``self.malformed_datagrams += 1``.
        if isinstance(node, (ast.AugAssign, ast.Assign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_ACCOUNTING.search(_terminal_name(t)) for t in targets):
                return True
    return False


@register
class SilentDecodeDropRule(Rule):
    code = "REP005"
    summary = (
        "frame-decode rejections must re-raise or hit the admission/"
        "quarantine counters — no silent `except: pass` on parse errors"
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.rel.startswith("repro/"):
            return
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _caught_names(node)
            decode = sorted(
                name
                for name in caught
                if name in _DECODE_ERRORS or name.split(".")[-1] in _DECODE_ERRORS
            )
            if not decode or _accounts_for_rejection(node):
                continue
            yield Finding(
                rule=self.code,
                message=(
                    f"decode error{'s' if len(decode) > 1 else ''} "
                    f"{', '.join(f'`{n}`' for n in decode)} swallowed without "
                    "accounting — re-raise or route through "
                    "`note_malformed`/a rejection counter so admission "
                    "can quarantine the source"
                ),
                file=file.rel,
                line=node.lineno,
                column=node.col_offset,
            )


__all__ = ["SilentDecodeDropRule"]
