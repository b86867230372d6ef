"""The self-building C kernel: its content-addressed cache, marker and laziness.

Every test runs against a temp copy of ``_kernel.c`` with an empty cache
(``kernel_sandbox`` in ``conftest.py``); a machine without a toolchain is the
``no_compiler`` fixture, which patches the loader's one compiler-resolution
helper.  "A fresh process" is a real one, pointed at the same sandbox.  The
tests that need a real build (``needs_compiler``) skip where there is none.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import repro.sim.compiled as compiled_mod
from repro.__main__ import main
from repro.sim.backend import BACKEND_ENV_VAR, replay_candidates

REPO_ROOT = Path(__file__).resolve().parents[2]
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


def kernel_path(sandbox: Path) -> Path:
    """Where the loader must cache the build of the sandbox's current source."""
    sha = hashlib.sha256((sandbox / "_kernel.c").read_bytes()).hexdigest()[:12]
    return sandbox / "__pycache__" / f"_kernel-{sha}{EXT_SUFFIX}"


@pytest.fixture
def spawned(monkeypatch, tmp_path):
    """Compiler invocations from here on, counted across forked workers too."""
    log = tmp_path / "spawned.log"
    log.touch()
    real = compiled_mod._spawn

    def counting(argv):
        with open(log, "a") as stream:
            stream.write(f"{os.getpid()}\n")
        return real(argv)

    monkeypatch.setattr(compiled_mod, "_spawn", counting)
    return lambda: len(log.read_text().splitlines())


@pytest.fixture
def probed(monkeypatch):
    """Every kernel probe (hash, cache stat, build) from here on."""
    calls = []
    real = compiled_mod._probe
    monkeypatch.setattr(compiled_mod, "_probe", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


#: What a fresh process reports: the probe's outcome and how often it ran the compiler.
_FRESH = """
import json, sys
import repro.sim.compiled as c
c._SOURCE = sys.argv[1]
spawns, real = [], c._spawn
c._spawn = lambda argv: spawns.append(argv) or real(argv)
from repro.sim.backend import replay_candidates
print(json.dumps({"available": c.kernel_available(), "info": c.kernel_build_info(),
                  "reason": c.unavailable_reason(), "spawns": len(spawns),
                  "engine": replay_candidates()[0].name}))
"""


def fresh_process(sandbox: Path) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != BACKEND_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", _FRESH, str(sandbox / "_kernel.c")],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def report(process: subprocess.Popen) -> dict:
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    return json.loads(out)


@pytest.mark.usefixtures("needs_compiler")
class TestBuildAndCache:
    def test_cold_build_then_a_fresh_process_loads_it_without_a_compiler(
        self, kernel_sandbox, spawned, caplog
    ):
        caplog.set_level("INFO", logger="repro.sim.compiled")
        assert compiled_mod.kernel_available() is True
        info = compiled_mod.kernel_build_info()
        target = kernel_path(kernel_sandbox)
        assert (info["origin"], info["path"], info["source_sha"]) == (
            "built",
            str(target),
            target.name[len("_kernel-") :][:12],
        )
        assert spawned() == 1 and target.is_file()
        assert [r.message for r in caplog.records if r.message.startswith("built ")]
        assert replay_candidates()[0].name == "compiled"

        second = report(fresh_process(kernel_sandbox))
        assert second["available"] and second["spawns"] == 0
        assert second["info"]["origin"] == "cached" and second["engine"] == "compiled"

    def test_stale_in_place_extension_is_ignored_and_an_edit_rebuilds(
        self, kernel_sandbox, spawned
    ):
        """Only the content-addressed file is ever loaded (the old tool left ``_kernel*.so``)."""
        (kernel_sandbox / f"_kernel{EXT_SUFFIX}").write_bytes(b"built from older source")
        assert compiled_mod.kernel_available() is True
        first = kernel_path(kernel_sandbox)
        assert compiled_mod.kernel_build_info()["path"] == str(first)
        before = first.read_bytes()

        with open(kernel_sandbox / "_kernel.c", "a") as stream:
            stream.write("\n")
        compiled_mod._kernel.cache_clear()
        assert compiled_mod.kernel_available() is True
        second = kernel_path(kernel_sandbox)
        assert second != first and compiled_mod.kernel_build_info()["path"] == str(second)
        assert spawned() == 2 and first.read_bytes() == before

    def test_racing_processes_end_with_one_valid_file(self, kernel_sandbox):
        racers = [fresh_process(kernel_sandbox) for _ in range(2)]
        for outcome in map(report, racers):
            assert outcome["available"] and outcome["engine"] == "compiled"
        assert os.listdir(kernel_sandbox / "__pycache__") == [kernel_path(kernel_sandbox).name]
        assert report(fresh_process(kernel_sandbox))["spawns"] == 0

    @pytest.mark.parametrize("junk", [b"", b"\x7fELF\x02\x01\x01" + b"\0" * 57, b"not an object"])
    def test_unloadable_cached_file_is_rebuilt_once(self, kernel_sandbox, spawned, junk):
        target = kernel_path(kernel_sandbox)
        target.parent.mkdir()
        target.write_bytes(junk)
        assert compiled_mod.kernel_available() is True
        assert spawned() == 1 and compiled_mod.kernel_build_info()["origin"] == "built"
        assert report(fresh_process(kernel_sandbox))["spawns"] == 0

    def test_pool_run_compiles_once_in_the_driver(self, kernel_sandbox, spawned, tmp_path, capsys):
        """Two workers on an empty kernel cache: one build, before the pool forks."""
        argv = ["run", "faults", "--scale", "smoke", "--workers", "2"]
        assert main([*argv, "--cache-dir", str(tmp_path / "cache"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == []
        assert spawned() == 1
        assert compiled_mod._kernel.cache_info().currsize == 1  # probed here, not only in workers


class TestNoCompiler:
    def test_declines_leaves_a_marker_and_the_next_process_reads_it(self, no_compiler, spawned):
        assert compiled_mod.kernel_available() is False
        marker = Path(f"{kernel_path(no_compiler)}.failed")
        assert "no C compiler" in marker.read_text()
        assert replay_candidates()[0].name == "vectorized"
        # The next process *has* a compiler (nothing hides it there): only the
        # marker can be what keeps it from building.
        later = report(fresh_process(no_compiler))
        assert not later["available"] and later["spawns"] == 0
        assert "no C compiler" in later["reason"] and str(marker) in later["reason"]
        assert later["engine"] == "vectorized" and spawned() == 0

    def test_golden_rows_are_identical_on_the_fallback_engine(self, no_compiler):
        spec = importlib.util.spec_from_file_location(
            "golden_rows_under_no_compiler", REPO_ROOT / "tests" / "pipeline" / "test_golden_rows.py"
        )
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        golden.test_golden_rows_bit_identical()
        assert [backend.name for backend in replay_candidates()] == ["vectorized", "python"]

    def test_warns_once_per_process(self, no_compiler, caplog):
        for _ in range(3):
            assert compiled_mod.kernel_available() is False
        warnings = [r for r in caplog.records if r.name == "repro.sim.compiled"]
        assert len(warnings) == 1 and warnings[0].levelname == "WARNING"
        assert "replays use vectorized" in warnings[0].message

    def test_compiler_error_lands_in_the_reason_with_its_stderr_tail(self, kernel_sandbox, monkeypatch):
        failed = subprocess.CompletedProcess([], 1, "", "_kernel.c:41:10: fatal error: Python.h: No such file\n")
        monkeypatch.setattr(compiled_mod, "_compiler", lambda: ["cc", "-shared"])
        monkeypatch.setattr(compiled_mod, "_spawn", lambda argv: failed)
        assert compiled_mod.kernel_available() is False
        assert "cc exited 1" in compiled_mod.unavailable_reason()
        assert "Python.h: No such file" in compiled_mod.unavailable_reason()
        assert os.listdir(kernel_sandbox / "__pycache__") == [f"{kernel_path(kernel_sandbox).name}.failed"]

    def test_unusable_cache_directory_declines_without_raising(self, kernel_sandbox, spawned):
        (kernel_sandbox / "__pycache__").write_text("a file where the directory should be")
        assert compiled_mod.kernel_available() is False
        assert "cannot build into" in compiled_mod.unavailable_reason()
        assert spawned() == 0

    def test_garbage_cached_file_without_a_compiler_declines_with_a_reason(self, no_compiler):
        target = kernel_path(no_compiler)
        target.parent.mkdir()
        target.write_bytes(b"not an object")
        assert compiled_mod.kernel_available() is False
        assert "no C compiler" in compiled_mod.unavailable_reason()


class TestLaziness:
    def test_import_and_the_benchmark_prepare_path_never_touch_the_kernel(self, tmp_path):
        """``import repro.experiments`` + record + save: no hash, no cache stat, no process."""
        code = (
            "import importlib.util, subprocess, sys\n"
            "import repro.sim.compiled as c\n"
            "def touched(*args, **kwargs): raise SystemExit('the kernel was probed')\n"
            "c._probe = c._spawn = subprocess.Popen = touched\n"
            "import repro.experiments\n"
            "spec = importlib.util.spec_from_file_location('perf_run', sys.argv[1])\n"
            "run = importlib.util.module_from_spec(spec)\n"
            "sys.modules['perf_run'] = run\n"
            "spec.loader.exec_module(run)\n"
            "run.prepare(run.WORKLOADS['table1-warm'], run.make_scale('smoke', 1), sys.argv[2])\n"
            "assert c._kernel.cache_info().currsize == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code, str(REPO_ROOT / "benchmarks/perf/run.py"), str(tmp_path / "warm")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert any((tmp_path / "warm").iterdir())  # it did record and save

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("pin", ["--backend vectorized", "REPRO_BACKEND=python"])
    def test_a_pinned_run_attempts_no_build(self, kernel_sandbox, probed, monkeypatch, capsys, pin, workers):
        argv = ["run", "table1", "--scale", "smoke", "--no-cache", "--workers", workers]
        if pin.startswith("--"):
            argv += pin.split()
        else:
            monkeypatch.setenv(*pin.split("="))
        assert main(argv) == 0
        assert probed == [] and not (kernel_sandbox / "__pycache__").exists()

    def test_a_serial_run_that_never_replays_never_probes(self, kernel_sandbox, probed, capsys):
        assert main(["run", "figure2", "--scale", "smoke", "--no-cache"]) == 0
        assert probed == []
