#!/usr/bin/env python3
"""Docs gate: relative links and ``repro.*`` names in the documentation.

Scans ``README.md`` and every ``docs/*.md`` file (or the files named on the
command line), outside fenced code blocks, for two kinds of reference:

* inline markdown links/images: every *relative* target must resolve to an
  existing file or directory, relative to the file containing the link.
  External targets (``http(s)://``, ``mailto:``) and pure in-page anchors
  (``#section``) are skipped; a ``path#anchor`` target is checked for the
  path part only;
* backticked dotted names under ``repro`` (`` `repro.sim.backend.select_engine` ``):
  the longest prefix that imports as a module is imported and the rest is
  looked up attribute by attribute, so a renamed or deleted function fails.

The name check also runs over every ``src/repro/**/*.py`` module (or the
``.py`` files named on the command line), on its reStructuredText
references: double-backtick literals and ``:role:`` cross-references (a
leading ``~`` allowed) whose whole target is a dotted name under ``repro``.

CI runs this as part of the ``docs`` job::

    python tools/check_docs.py
    python tools/check_docs.py docs/architecture.md  # subset
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Inline markdown links/images: ``[text](target)`` / ``![alt](target)``.
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not files in this repository.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: A whole inline code span holding a dotted name under ``repro``.
NAME_PATTERN = re.compile(r"`(repro(?:\.\w+)+)`")

#: The same in Python source: a whole ````literal```` or ``:role:`[~]target```.
SOURCE_NAME_PATTERN = re.compile(r"(?:``|:\w+:`~?)(repro(?:\.\w+)+)`")


def default_files(root: Path) -> List[Path]:
    """The documentation set the gate covers by default."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    files.extend(sorted((root / "src" / "repro").rglob("*.py")))
    return [path for path in files if path.exists()]


def prose_lines(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line number, line)`` of ``path`` outside fenced code blocks."""
    fence_depth = 0
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fence_depth = 1 - fence_depth
        elif not fence_depth:
            yield line_no, line


def broken_links(path: Path) -> List[Tuple[int, str]]:
    """(line, target) pairs of relative links in ``path`` that do not resolve."""
    broken: List[Tuple[int, str]] = []
    for line_no, line in prose_lines(path):
        for match in LINK_PATTERN.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (path.parent / relative).exists():
                broken.append((line_no, target))
    return broken


def resolves(name: str) -> bool:
    """Whether ``name`` imports: its longest module prefix, then attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                found = getattr(found, attribute)
        except AttributeError:
            return False
        return True
    return False


def unresolved_names(path: Path) -> List[Tuple[int, str]]:
    """(line, name) pairs of backticked ``repro.*`` names in ``path`` that do not resolve."""
    if path.suffix == ".py":
        lines = enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        pattern = SOURCE_NAME_PATTERN
    else:
        lines, pattern = prose_lines(path), NAME_PATTERN
    return [
        (line_no, match.group(1))
        for line_no, line in lines
        for match in pattern.finditer(line)
        if not resolves(match.group(1))
    ]


def main(argv: List[str]) -> int:
    """Check the documentation set; print offenders and return 1 if any."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    files = [Path(arg) for arg in argv] if argv else default_files(root)
    offenders = 0
    for path in files:
        for line_no, target in [] if path.suffix == ".py" else broken_links(path):
            print(f"{path}:{line_no}: broken relative link -> {target}")
            offenders += 1
        for line_no, name in unresolved_names(path):
            print(f"{path}:{line_no}: `{name}` does not resolve")
            offenders += 1
    if offenders:
        print(f"{offenders} broken link(s) or name(s)")
        return 1
    modules = sum(path.suffix == ".py" for path in files)
    print(
        f"docs link and name check OK: {len(files) - modules} file(s), "
        f"{modules} source module(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
