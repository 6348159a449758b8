"""Per-line suppression comments: ``# cgsim: lint-ignore[rule-id] reason``.

A finding is silenced by an ignore comment either on the *same line* the
finding is reported at (trailing comment) or on a comment-only line
*directly above* it (for reasons too long to fit inline), naming the rule
id (or a comma-separated list of ids) in brackets, followed by a
free-text reason.  The reason is
mandatory: a bare ignore is itself reported as ``lint-bare-ignore``, and
an ignore naming a rule id the linter does not know is reported as
``lint-unknown-rule`` -- so suppressions stay accurate and
self-documenting.  Comments never reach the AST, so
parsing runs ``tokenize`` over the raw source and looks only at real
``COMMENT`` tokens -- a docstring *describing* the ignore syntax (like
this one) is never misread as a suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Suppression", "parse_suppressions"]

#: The ignore-comment grammar.  Group 1: the bracketed rule list (optional
#: so bare ``lint-ignore`` comments parse and get flagged); group 2: the
#: reason text.
_IGNORE = re.compile(
    r"#\s*cgsim:\s*lint-ignore(?:\[([^\]]*)\])?\s*(.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ignore comment: which rules it silences on which line.

    ``rules`` is the tuple of rule ids named in the brackets (empty for a
    malformed bare ignore), ``reason`` the free text after them, and
    ``own_line`` whether the comment stands alone (in which case it also
    covers findings on the next line).  The engine matches findings by
    ``(line, rule)`` and counts how many each suppression absorbed, so
    unused suppressions are observable.
    """

    line: int
    rules: Tuple[str, ...]
    reason: str
    own_line: bool = False


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Extract every ignore comment from ``source``, keyed by line number.

    Only the textual grammar is validated here; rule-id existence and the
    mandatory-reason policy are enforced by the engine, which has the rule
    registry and turns violations into findings at the comment's location.
    """
    found: Dict[int, Suppression] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # The engine only parses files that already passed ast.parse, but
        # stay defensive for direct callers: no tokens, no suppressions.
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _IGNORE.search(token.string)
        if match is None:
            continue
        number = token.start[0]
        raw_rules = match.group(1) or ""
        rules = tuple(
            part.strip() for part in raw_rules.split(",") if part.strip()
        )
        reason = (match.group(2) or "").strip()
        own_line = token.line.strip().startswith("#")
        found[number] = Suppression(
            line=number, rules=rules, reason=reason, own_line=own_line
        )
    return found

