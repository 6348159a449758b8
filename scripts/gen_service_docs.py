#!/usr/bin/env python
"""Refresh the generated WebSocket message reference in docs/service.md.

docs/service.md is a hand-written page with one *generated block*: the
WebSocket message reference, rendered from the wire dataclasses by
:func:`repro.service.ws_message_reference` so the docs cannot drift from
the models.  This script rewrites the text between the BEGIN/END markers
in place; ``--check`` mode (used by CI's docs-build job and
tests/test_docs.py) exits non-zero with a regeneration hint when the
committed block is stale.

Usage::

    python scripts/gen_service_docs.py          # refresh the block
    python scripts/gen_service_docs.py --check  # verify it is in sync
"""

from __future__ import annotations

import sys
from pathlib import Path

import _docgen

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "service.md"

BEGIN = (
    "<!-- BEGIN GENERATED FILE SECTION: ws-message-reference - do not edit\n"
    "     by hand. Regenerate with: python scripts/gen_service_docs.py -->"
)
END = "<!-- END GENERATED FILE SECTION: ws-message-reference -->"


def render_page(current: str) -> str:
    """``current`` with the marker-delimited block regenerated."""
    from repro.service import ws_message_reference

    begin = current.find(BEGIN)
    end = current.find(END)
    if begin == -1 or end == -1 or end < begin:
        raise SystemExit(
            f"{OUTPUT} is missing the ws-message-reference markers; "
            "restore the BEGIN/END GENERATED FILE SECTION comments"
        )
    block = BEGIN + "\n\n" + ws_message_reference().rstrip() + "\n\n"
    return current[:begin] + block + current[end:]


def main(argv=None) -> int:
    return _docgen.run(
        __doc__, lambda: {OUTPUT: render_page(_docgen.committed(OUTPUT))},
        script="gen_service_docs.py", what="block",
        stale="WS message reference is out of sync with repro.service.models", argv=argv)


if __name__ == "__main__":
    sys.exit(main())
