"""``tools/build_compiled.py``: the loud, forced twin of the kernel's own build."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

import repro.sim.compiled as compiled_mod

REPO_ROOT = Path(__file__).parent.parent.parent


@pytest.fixture()
def build_tool():
    """Import tools/build_compiled.py as a throwaway module."""
    spec = importlib.util.spec_from_file_location(
        "build_compiled_under_test", REPO_ROOT / "tools" / "build_compiled.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildCompiled:
    def test_build_and_probe_success(
        self, build_tool, needs_compiler, kernel_sandbox, monkeypatch, capsys
    ):
        """A recorded failure does not stop the tool: it builds past the marker."""
        with monkeypatch.context() as hidden:
            hidden.setattr(compiled_mod, "_compiler", lambda: None)
            assert compiled_mod.kernel_available() is False
        marker = next((kernel_sandbox / "__pycache__").glob("*.failed"))
        compiled_mod._kernel.cache_clear()
        assert compiled_mod.kernel_available() is False  # the compiler is back; the marker declines

        assert build_tool.main() == 0
        assert "compiled kernel OK" in capsys.readouterr().out
        assert not marker.exists()
        assert compiled_mod.kernel_available() is True

    def test_build_failure_exits_1_without_probing(self, build_tool, no_compiler, capsys):
        assert build_tool.main() == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err and "no C compiler" in captured.err
        assert "compiled kernel OK" not in captured.out
        assert list((no_compiler / "__pycache__").glob("*.failed"))

    def test_probe_failure_propagates_its_exit_code(
        self, build_tool, kernel_sandbox, monkeypatch, capsys
    ):
        """A compiler that exits 0 but leaves nothing loadable is still a failed build."""

        def fake_cc(argv):
            Path(argv[argv.index("-o") + 1]).write_bytes(b"not an object")
            return subprocess.CompletedProcess(argv, 0, "", "")

        monkeypatch.setattr(compiled_mod, "_compiler", lambda: ["cc", "-shared"])
        monkeypatch.setattr(compiled_mod, "_spawn", fake_cc)
        assert build_tool.main() == 1
        assert "does not load" in capsys.readouterr().err
