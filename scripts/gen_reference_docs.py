#!/usr/bin/env python
"""Generate the API reference pages under docs/reference/ (mkdocstrings).

Each documented package renders as one page holding a ``::: package``
mkdocstrings directive whose ``members`` list is the package's ``__all__``
-- so the committed pages always name exactly the advertised public surface,
and a symbol added to (or removed from) an ``__all__`` shows up as a diff
here.  ``--check`` mode (used by CI's docs-reference step and
tests/test_docs.py) exits non-zero when the committed pages are stale.

The pages only *reference* the docstrings; rendering them needs the
``mkdocstrings[python]`` plugin from the ``docs`` extra at ``mkdocs build``
time.  This script itself needs nothing beyond the package.

Usage::

    python scripts/gen_reference_docs.py          # rewrite the pages
    python scripts/gen_reference_docs.py --check  # verify they are in sync
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import _docgen

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT_DIR = REPO_ROOT / "docs" / "reference"

#: Packages/modules documented in the reference, in nav order.
MODULES = [
    "repro.des",
    "repro.core.session",
    "repro.state",
    "repro.data",
    "repro.plugins",
    "repro.scenarios",
    "repro.schema",
    "repro.conformance",
    "repro.experiments",
    "repro.service",
    "repro.lint",
]

MARKER = (
    "<!-- GENERATED FILE - do not edit by hand.\n"
    "     Regenerate with: python scripts/gen_reference_docs.py -->"
)


def page_name(module_name: str) -> str:
    """File name of a module's reference page (``repro.des`` -> ``des.md``)."""
    return module_name.split(".", 1)[1].replace(".", "-") + ".md"


def summary_line(module) -> str:
    """First line of the module docstring (the index blurb)."""
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0].rstrip(".") if doc else ""


def render_module_page(module_name: str) -> str:
    """One reference page: H1, marker, and the mkdocstrings directive."""
    module = importlib.import_module(module_name)
    names = list(getattr(module, "__all__", []))
    lines = [
        f"# `{module_name}`",
        "",
        MARKER,
        "",
        f"::: {module_name}",
        "    options:",
        "      show_root_heading: false",
        "      show_source: false",
        "      members:",
    ]
    lines += [f"        - {name}" for name in names]
    lines.append("")
    return "\n".join(lines)


def render_index() -> str:
    """The reference landing page listing every documented package."""
    lines = [
        "# API reference",
        "",
        MARKER,
        "",
        "Generated from the packages' `__all__` surfaces and docstrings by",
        "`scripts/gen_reference_docs.py`; the docstring ratchet in",
        "`tests/test_public_api.py` keeps every listed symbol substantively",
        "documented.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        count = len(getattr(module, "__all__", []))
        lines.append(
            f"- [`{module_name}`]({page_name(module_name)}) - "
            f"{summary_line(module)} ({count} public symbols)"
        )
    lines.append("")
    return "\n".join(lines)


def render_all() -> dict:
    """Every reference page as {relative name: content}."""
    pages = {"index.md": render_index()}
    for module_name in MODULES:
        pages[page_name(module_name)] = render_module_page(module_name)
    return pages


def main(argv=None) -> int:
    return _docgen.run(
        __doc__, lambda: {OUTPUT_DIR / name: text for name, text in render_all().items()},
        script="gen_reference_docs.py", what="pages", tree=OUTPUT_DIR, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
