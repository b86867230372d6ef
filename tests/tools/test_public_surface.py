"""The packages' public surface: what each ``__init__.py`` re-exports, and who imports it.

A package re-exports only the names that something other than the tests
imports from the package (``docs/architecture.md``, "Public surface").  The
tests import from the defining modules, so nothing in the suite would notice
a trim that broke an example, a docs snippet, CI's inline Python or the
frozen ``benchmarks/perf/run.py``; these cases read those consumers' text
and check every ``from repro... import`` in it resolves, and that every
re-export still has such a consumer.
"""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: ``from repro[.x] import a, b`` at the start of a line, parenthesised or not.
IMPORT = re.compile(r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M)
#: A fenced markdown code block's body.
FENCED = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.M | re.S)


def imports(text: str) -> list:
    """``(module, name)`` of every ``from repro... import`` in ``text``."""
    found = []
    for match in IMPORT.finditer(text):
        for line in match.group(2).strip("()").splitlines():
            for item in re.split(r"[;#\"'`]", line)[0].split(","):
                if item.split():
                    found.append((match.group(1), item.split()[0]))
    return found


def code_of(path: Path) -> str:
    """The part of ``path`` that runs: a markdown file's fenced blocks, else all of it."""
    text = path.read_text(encoding="utf-8")
    return "\n".join(FENCED.findall(text)) if path.suffix == ".md" else text


#: Everything outside the tests that imports from the package: the code that runs
#: shipped commands, the examples, the frozen benchmark, tools, docs and CI.
OUTSIDE = [
    *sorted((ROOT / "benchmarks" / "perf").glob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
]
CONSUMERS = [path for path in OUTSIDE if imports(code_of(path))]
PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_repro_import_outside_the_tests_resolves(path):
    missing = [f"{module}:{name}" for module, name in imports(code_of(path)) if not resolves(module, name)]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_a_package_namespace_holds_only_submodules_and_its_exports(package):
    """A name imported into ``__init__.py`` but left out of ``__all__`` is a stray re-export."""
    module = importlib.import_module(package)
    exported = set(getattr(module, "__all__", ()))
    strays = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and name not in exported and not isinstance(value, types.ModuleType)
    ]
    assert strays == []
    assert all(hasattr(module, name) for name in exported)


@pytest.mark.parametrize(
    "package", [p for p in PACKAGES if any(not n.startswith("__") for n in getattr(importlib.import_module(p), "__all__", ()))]
)
def test_every_re_export_is_imported_from_the_package_outside_the_tests(package):
    users = {
        name
        for path in [*OUTSIDE, *SRC.rglob("*.py")]
        for module, name in imports(code_of(path))
        if module == package
    }
    exported = [name for name in importlib.import_module(package).__all__ if not name.startswith("__")]
    assert sorted(set(exported) - users) == []


def test_the_frozen_benchmark_and_ci_keep_their_package_level_imports():
    """``benchmarks/perf/run.py`` and CI may not change, so what they import from a package stays."""
    wanted = {
        ("repro.pipeline", name)
        for name in (
            "run_pipeline",
            "ScheduleCache",
            "default_registry",
            "schedule_cache_key",
            "record_scenario_schedule",
            "workload_fingerprint",
        )
    } | {("repro.experiments", "ExperimentScale")}
    found = set(imports(code_of(ROOT / "benchmarks" / "perf" / "run.py")))
    found |= set(imports(code_of(ROOT / ".github" / "workflows" / "ci.yml")))
    assert wanted <= found
    assert all(resolves(module, name) for module, name in wanted)
