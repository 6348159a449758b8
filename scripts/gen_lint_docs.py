#!/usr/bin/env python
"""Refresh the generated rule catalogue in docs/lint.md.

docs/lint.md is a hand-written guide with one *generated block*: the rule
catalogue, rendered from the rule docstrings registered in
:data:`repro.lint.RULE_FAMILIES` -- the docstring on each rule class IS
the published rationale, so the page cannot drift from the analyzer.
This script rewrites the text between the BEGIN/END markers in place;
``--check`` mode (used by CI's docs-build job and tests/test_docs.py)
exits non-zero with a regeneration hint when the committed block is
stale.

Usage::

    python scripts/gen_lint_docs.py          # refresh the block
    python scripts/gen_lint_docs.py --check  # verify it is in sync
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import _docgen

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "lint.md"

BEGIN = (
    "<!-- BEGIN GENERATED FILE SECTION: lint-rule-catalogue - do not edit\n"
    "     by hand. Regenerate with: python scripts/gen_lint_docs.py -->"
)
END = "<!-- END GENERATED FILE SECTION: lint-rule-catalogue -->"

#: One-line intro per family, shown under its H3 before the rules.
FAMILY_BLURBS = {
    "determinism": (
        "Bit-identical replay is the headline guarantee; these rules catch "
        "the source patterns that break it before any test runs."
    ),
    "snapshot": (
        "The static complement of the checkpoint layer's runtime "
        "`diff_states` verification."
    ),
    "async": (
        "The service layer runs on one event loop; one blocking call "
        "freezes every session."
    ),
    "pickle": (
        "Everything crossing a worker boundary is pickled under the "
        "`spawn` start method."
    ),
    "hygiene": (
        "Findings the engine emits about the lint run itself; none of "
        "these can be suppressed."
    ),
}


def render_catalogue() -> str:
    """The full rule catalogue, one section per family, from docstrings."""
    from repro.lint import RULE_FAMILIES

    lines = []
    for family, rules in RULE_FAMILIES.items():
        lines.append(f"### Family `{family}`")
        lines.append("")
        blurb = FAMILY_BLURBS.get(family)
        if blurb:
            lines.append(blurb)
            lines.append("")
        for rule in rules:
            doc = inspect.cleandoc(rule.__doc__ or "").strip()
            lines.append(f"#### `{rule.id}`")
            lines.append("")
            lines.append(f"*{rule.short}*")
            lines.append("")
            lines.append(doc)
            lines.append("")
    return "\n".join(lines).rstrip()


def render_page(current: str) -> str:
    """``current`` with the marker-delimited block regenerated."""
    begin = current.find(BEGIN)
    end = current.find(END)
    if begin == -1 or end == -1 or end < begin:
        raise SystemExit(
            f"{OUTPUT} is missing the lint-rule-catalogue markers; "
            "restore the BEGIN/END GENERATED FILE SECTION comments"
        )
    block = BEGIN + "\n\n" + render_catalogue() + "\n\n"
    return current[:begin] + block + current[end:]


def main(argv=None) -> int:
    return _docgen.run(
        __doc__, lambda: {OUTPUT: render_page(_docgen.committed(OUTPUT))},
        script="gen_lint_docs.py", what="block",
        stale="rule catalogue is out of sync with the repro.lint rule docstrings", argv=argv)


if __name__ == "__main__":
    sys.exit(main())
