"""The read / render / ``--check`` / write driver the ``gen_*_docs.py`` scripts share.

Each generator only knows how to *render* its files; this module owns the
command line (``--check`` or rewrite), the comparison with what is committed
and the messages, so all four scripts behave alike: ``--check`` exits 1 with
a "regenerate with" hint when a committed file is stale, the default mode
rewrites the files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(doc: str, render: Callable[[], Dict[Path, str]], *, script: str,
        stale: str = "is out of sync", what: str = "page",
        tree: Optional[Path] = None, argv=None) -> int:
    """Drive one generator; return the process exit code.

    ``render()`` returns ``{path: text}`` for every file the script owns (it
    may raise ``SystemExit`` to refuse, e.g. when block markers are missing).
    ``stale`` finishes the sentence "<path> ..." printed for a file that
    differs.  A script that owns a whole directory passes it as ``tree``:
    any other ``*.md`` file in it is reported as a stray.
    """
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if the committed {what} is out of sync")
    args = parser.parse_args(argv)

    pages = render()
    hint = f"regenerate with: python scripts/{script}"
    if tree is None:
        (path, text), = pages.items()
        size = f"({len(text.splitlines())} lines)"
        in_sync, wrote = f"{path} is in sync {size}", f"wrote {path} {size}"
    else:
        in_sync = f"{tree.relative_to(REPO_ROOT)} is in sync ({len(pages)} pages)"
        wrote = f"wrote {len(pages)} pages to {tree}"

    if not args.check:
        for path, text in pages.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        print(wrote)
        return 0
    differing = [path for path, text in pages.items()
                 if not path.exists() or path.read_text(encoding="utf-8") != text]
    if tree is None:
        problems = [f"{path} {stale}; {hint}" for path in differing]
    else:
        strays = [p for p in sorted(tree.glob("*.md")) if p not in pages]
        problems = [f"{p.relative_to(REPO_ROOT)} {stale}" for p in differing]
        problems += [f"{p.relative_to(REPO_ROOT)} is not a generated page (remove it)"
                     for p in strays]
        problems += [hint] if problems else []
    if problems:
        print(*problems, sep="\n", file=sys.stderr)
        return 1
    print(in_sync)
    return 0


def committed(path: Path) -> str:
    """The committed text of a page whose generated block is refreshed in place."""
    if not path.exists():
        print(f"{path} does not exist", file=sys.stderr)
        raise SystemExit(1)
    return path.read_text(encoding="utf-8")
