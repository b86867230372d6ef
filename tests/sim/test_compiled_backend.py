"""The ``"compiled"`` backend: availability, fallback, and error surfaces.

Complements ``test_backend_equivalence.py`` (which holds the compiled
backend to the bit-identity contract wherever its kernel builds): these tests
pin the *other* half of the acceptance criteria — environments that cannot
build the kernel degrade gracefully.  That state is the real one, not a
simulation: the ``no_compiler`` fixture points the loader at an empty temp
cache and hides the compiler, so both halves run regardless of whether this
environment has the toolchain.  ``test_kernel_build.py`` covers the build and
its cache themselves.
"""

import json

import pytest

import repro.sim.compiled as compiled_mod
from repro.__main__ import main
from repro.core.replay import ReplayExperiment, replay_schedule
from repro.pipeline.scenario import PipelineConfigError
from repro.sim.backend import (
    BACKEND_ENV_VAR,
    ENGINES,
    describe_backends,
    get_backend,
    select_engine,
)
from repro.sim.compiled import kernel_available, unavailable_reason
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

needs_kernel = pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or "")


@pytest.fixture(scope="module")
def fixture_topology():
    return dumbbell_topology(2, mbps(10), mbps(100))


@pytest.fixture(scope="module")
def recorded_schedule(fixture_topology):
    experiment = ReplayExperiment(
        fixture_topology,
        "fifo",
        WorkloadSpec(
            utilization=0.5,
            reference_bandwidth_bps=mbps(10),
            size_distribution=paper_default_workload(),
            transport="udp",
            duration=0.1,
        ),
        seed=11,
        sources=["src0", "src1"],
        destinations=["dst0", "dst1"],
    )
    return experiment.record()


class TestPurePythonInstallPath:
    """A machine with no toolchain: everything still works."""

    def test_compiled_module_imports_without_kernel(self, no_compiler):
        assert compiled_mod.kernel_available() is False
        assert "no C compiler" in compiled_mod.unavailable_reason()
        assert compiled_mod.kernel_build_info() is None

    def test_python_still_resolves(self, no_compiler):
        assert get_backend("python").name == "python"

    def test_compiled_is_registered_but_unavailable(self, no_compiler):
        assert "compiled" in ENGINES
        with pytest.raises(PipelineConfigError, match="unavailable"):
            get_backend("compiled")

    def test_supports_replay_declines_without_kernel(
        self, no_compiler, fixture_topology, monkeypatch
    ):
        """An unavailable engine is not asked at all: it is never a candidate
        (so nothing "declined"), and naming it is refused at resolution."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)  # CI runs this file under a pin
        engine, declined = select_engine(None, fixture_topology, "lstf")
        assert (engine.name, declined) == ("python", [])
        with pytest.raises(PipelineConfigError, match="unavailable"):
            select_engine("compiled", fixture_topology, "lstf")

    def test_describe_backends_reports_reason(self, no_compiler):
        entries = {entry["name"]: entry for entry in describe_backends()}
        assert entries["python"]["available"] is True
        assert entries["compiled"]["available"] is False
        assert "no C compiler" in entries["compiled"]["reason"]
        assert entries["compiled"]["build"] is None


class TestErrorDistinction:
    """Unknown names and unavailable backends are different errors (both exit 2)."""

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(PipelineConfigError) as excinfo:
            get_backend("no-such-backend")
        message = str(excinfo.value)
        assert "unknown backend" in message
        assert "registered backends: compiled, python " in message

    def test_unavailable_backend_names_itself_and_the_fix(self, no_compiler):
        with pytest.raises(PipelineConfigError) as excinfo:
            get_backend("compiled")
        message = str(excinfo.value)
        assert "unknown backend" not in message
        assert "compiled" in message and "unavailable" in message
        assert "no C compiler" in message

    def test_cli_unknown_backend_exits_2(self, capsys, monkeypatch):
        # ``vectorized`` was an engine once; it is an unknown name like any other.
        for name in ("no-such-backend", "vectorized"):
            code = main(["run", "table1", "--backend", name, "--no-cache"])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown backend {name!r}; registered backends: compiled, python" in err
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert main(["run", "table1", "--no-cache"]) == 2
        assert "unknown backend 'vectorized'" in capsys.readouterr().err

    def test_cli_unavailable_backend_exits_2(self, no_compiler, capsys):
        code = main(["run", "table1", "--backend", "compiled", "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unavailable" in err and "unknown backend" not in err


class TestListBackendsCli:
    def test_table_lists_every_backend(self, capsys):
        assert main(["list", "--backends"]) == 0
        out = capsys.readouterr().out
        for name in ("python", "compiled"):
            assert name in out

    def test_json_carries_availability_and_notes(self, capsys):
        assert main(["list", "--backends", "--json"]) == 0
        entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
        assert set(entries) == {"python", "compiled"}
        assert entries["python"]["available"] is True
        for entry in entries.values():
            assert entry["replay_note"]
            assert ("reason" in entry) and ("build" in entry)

    def test_unavailable_backend_shows_reason_not_error(self, no_compiler, capsys):
        assert main(["list", "--backends"]) == 0
        out = capsys.readouterr().out
        assert "UNAVAILABLE" in out
        assert "no C compiler" in out


@needs_kernel
class TestCompiledKernel:
    """Built-kernel specifics not covered by the equivalence suite."""

    def test_build_info_names_the_toolchain(self):
        info = get_backend("compiled").build_info()
        assert info["toolchain"] == "cpython-c-api"
        assert info["compiler"]
        assert info["kernel_version"] >= 1

    def test_kernel_validates_array_lengths(self):
        from repro.sim.compiled import kernel_run_flat_replay

        kernel = kernel_run_flat_replay()
        with pytest.raises(ValueError, match="off"):
            kernel([0.0], [0], [], [], [], [], 1, [0.0], None)

    @pytest.mark.parametrize(
        "off, hops, message",
        [
            ([0, 2, 4], {"hop_pkt": [0]}, r"hop_pkt must have 4 entries, got 1"),
            ([0, 2, 4], {"hop_port": [0]}, r"hop_port must have 4 entries, got 1"),
            ([0, 2, 4], {"hop_tx": [1e-3] * 3}, r"hop_tx must have 4 entries, got 3"),
            ([0, 2, 4], {"hop_prop": [1e-3] * 5}, r"hop_prop must have 4 entries, got 5"),
            ([-3, 1], {}, r"off\[0\] must be 0, got -3"),
        ],
    )
    def test_kernel_refuses_hop_arrays_that_disagree_with_off(self, off, hops, message):
        """The loop indexes the hop arrays unchecked, so their lengths are
        checked against ``off`` before it runs (LSTF mode)."""
        from repro.sim.compiled import kernel_run_flat_replay

        total = off[-1]
        arrays = {
            "hop_pkt": [0, 0, 1, 1][:total],
            "hop_port": [0] * total,
            "hop_tx": [1e-3] * total,
            "hop_prop": [1e-3] * total,
            **hops,
        }
        packets = len(off) - 1
        with pytest.raises(ValueError, match=message):
            kernel_run_flat_replay()(
                [0.0, 1.0][:packets], off, **arrays, num_ports=1, slack=[0.0] * packets
            )

    def test_kernel_requires_keys_for_static_modes(self):
        from repro.sim.compiled import kernel_run_flat_replay

        kernel = kernel_run_flat_replay()
        with pytest.raises(ValueError, match="hop_key"):
            kernel([0.0], [0, 1], [0], [0], [1e-4], [1e-3], 1, None, None)

    def test_kernel_empty_input(self):
        from repro.sim.compiled import kernel_run_flat_replay

        kernel = kernel_run_flat_replay()
        arr, start, dep, egress, executed = kernel([], [0], [], [], [], [], 0, [])
        assert (arr, start, dep, egress, executed) == ([], [], [], [], 0)

    def test_zero_budget_executes_nothing(self, fixture_topology, recorded_schedule):
        replayed = replay_schedule(
            fixture_topology,
            recorded_schedule,
            mode="lstf",
            backend="compiled",
            max_events=0,
        )
        assert len(replayed) == 0
