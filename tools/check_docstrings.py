#!/usr/bin/env python3
"""Docstring-presence gate for the library's documented core.

Walks every module in the packages named on the command line (default:
``repro.core``, ``repro.sim``, ``repro.transport``, ``repro.pipeline``,
``repro.schedulers``, ``repro.traffic``, ``repro.experiments``,
``repro.faults``, ``repro.diff``, ``repro.utils``) and fails if any *public*
module, class, function, or method defined there lacks a docstring.
"Public" means the dotted path contains no ``_``-prefixed component;
inherited members and re-exports defined elsewhere are skipped, so each
symbol is checked exactly once, where it is defined.

CI runs this as part of the ``docs`` job::

    python tools/check_docstrings.py
    python tools/check_docstrings.py repro.core repro.pipeline  # subset
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import Iterator, List

DEFAULT_PACKAGES = (
    "repro.core",
    "repro.sim",
    "repro.transport",
    "repro.pipeline",
    "repro.schedulers",
    "repro.traffic",
    "repro.experiments",
    "repro.faults",
    "repro.diff",
    "repro.utils",
)


def iter_modules(package_name: str) -> Iterator[str]:
    """Yield ``package_name`` and every module inside it, recursively."""
    package = importlib.import_module(package_name)
    yield package_name
    search = getattr(package, "__path__", None)
    if search is None:
        return
    for info in pkgutil.walk_packages(search, prefix=f"{package_name}."):
        yield info.name


def is_public(qualified: str) -> bool:
    """Whether a dotted path contains no private (``_``-prefixed) component."""
    return not any(part.startswith("_") for part in qualified.split("."))


def missing_docstrings(module_name: str) -> List[str]:
    """Dotted paths of public symbols in ``module_name`` lacking docstrings."""
    module = importlib.import_module(module_name)
    missing: List[str] = []
    if not inspect.getdoc(module):
        missing.append(module_name)

    def check_function(func, qualified: str) -> None:
        if is_public(qualified) and not inspect.getdoc(func):
            missing.append(qualified)

    def check_class(cls, qualified: str) -> None:
        if not is_public(qualified):
            return
        if not inspect.getdoc(cls):
            missing.append(qualified)
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            target = None
            if inspect.isfunction(member):
                target = member
            elif isinstance(member, (staticmethod, classmethod)):
                target = member.__func__
            elif isinstance(member, property):
                target = member.fget
            if target is not None and not inspect.getdoc(target):
                missing.append(f"{qualified}.{name}")

    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # defined elsewhere; checked where it lives
        if inspect.isclass(member):
            check_class(member, f"{module_name}.{name}")
        elif inspect.isfunction(member):
            check_function(member, f"{module_name}.{name}")
    return missing


def main(argv: List[str]) -> int:
    """Check every requested package; print offenders and return 1 if any."""
    packages = argv or list(DEFAULT_PACKAGES)
    checked = 0
    offenders: List[str] = []
    for package in packages:
        for module_name in iter_modules(package):
            checked += 1
            offenders.extend(missing_docstrings(module_name))
    if offenders:
        print(f"{len(offenders)} public symbol(s) missing docstrings:")
        for path in sorted(set(offenders)):
            print(f"  {path}")
        return 1
    print(f"docstring check OK: {checked} module(s) across {', '.join(packages)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
