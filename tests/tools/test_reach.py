"""The reachability ledger (``tools/reach.py``) over a tiny synthetic package.

The real ledger drives the CLI for about a minute; these cases drive a
four-function package instead, so each rule of the gate is checked directly:
a never-entered function is reported, an allow-listed one is not, and an
allow-list entry that names a missing or an entered function is stale.
"""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REACH_PATH = Path(__file__).resolve().parents[2] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''
import functools


def used():
    return 1


def unused():
    return 2


def allowed():
    return 3


class Shape:
    @functools.lru_cache(maxsize=None)
    def area(self):
        return 0

    def declared(self):
        raise NotImplementedError
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """``toypkg.mod`` on ``sys.path``; forgotten again afterwards."""
    root = tmp_path / "toypkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(textwrap.dedent(MODULE))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield root
    for name in [name for name in sys.modules if name.split(".")[0] == "toypkg"]:
        del sys.modules[name]


def run_ledger(package, allow):
    def drive():
        module = importlib.import_module("toypkg.mod")
        module.used()
        module.Shape().area()

    return reach.ledger(reach.functions(package, "toypkg"), reach.entered(drive), allow)


def keys(found):
    return sorted(function.key for function in found)


def test_a_never_entered_function_is_reported(package):
    never, unlisted, stale = run_ledger(package, {})
    # The decorated method counts as entered (its code starts at the decorator
    # line); the body that only raises NotImplementedError is not counted.
    assert keys(never) == keys(unlisted) == ["toypkg.mod:allowed", "toypkg.mod:unused"]
    assert stale == []


def test_an_allow_listed_function_is_not_reported(package):
    never, unlisted, stale = run_ledger(package, {"toypkg.mod:allowed": "a test fixture"})
    assert keys(never) == ["toypkg.mod:allowed", "toypkg.mod:unused"]
    assert keys(unlisted) == ["toypkg.mod:unused"]
    assert stale == []


@pytest.mark.parametrize("entry", ["toypkg.mod:gone", "toypkg.mod:used", "toypkg.mod:Shape.area"])
def test_an_entry_naming_a_missing_or_entered_function_is_stale(package, entry):
    allow = {"toypkg.mod:allowed": "a test fixture", "toypkg.mod:unused": "later", entry: "stale"}
    never, unlisted, stale = run_ledger(package, allow)
    assert unlisted == [] and stale == [entry]


def test_the_profile_hook_is_restored(package):
    previous = sys.getprofile()
    sentinel = lambda frame, event, arg: None  # noqa: E731
    sys.setprofile(sentinel)
    try:
        run_ledger(package, {})
        assert sys.getprofile() is sentinel
    finally:
        sys.setprofile(previous)


def test_defs_are_keyed_by_module_and_qualified_name(tmp_path):
    """Nested defs and package ``__init__`` modules get their full key; abstract methods none."""
    root = tmp_path / "toypkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("def top():\n    def inner():\n        pass\n    return inner\n")
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "mod.py").write_text(
        textwrap.dedent(
            """
            import abc


            class Outer(abc.ABC):
                class Inner:
                    def method(self):
                        pass

                @abc.abstractmethod
                def declared(self):
                    pass
            """
        )
    )
    assert keys(reach.functions(root, "toypkg")) == [
        "toypkg.sub.mod:Outer.Inner.method",
        "toypkg:top",
        "toypkg:top.inner",
    ]


def test_every_allow_list_entry_names_a_counted_function():
    """A typo or a deleted function on the list fails here, without the minute-long CLI run."""
    counted = {function.key for function in reach.functions(reach.ROOT / "src" / "repro", "repro")}
    assert sorted(set(reach.ALLOW) - counted) == []


def test_every_allow_list_entry_is_listed_once_under_a_reason():
    listed = [
        f"repro.{module}:{name}"
        for block in reach.ALLOWED.values()
        for module, names in (token.split(":") for token in block.split())
        for name in names.split(",")
    ]
    assert len(listed) == len(set(listed)) == len(reach.ALLOW)
    assert all(reason.strip() for reason in reach.ALLOWED)
