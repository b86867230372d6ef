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
import signal
import time
from array import array
from functools import partial
from unittest import mock

import pytest

import repro.sim.compiled as compiled_mod
from repro.__main__ import main
from repro.core import replay_compiled
from repro.core.replay import ReplayExperiment, replay_schedule
from repro.core.schedule import Schedule, ScheduleColumns
from repro.pipeline.scenario import PipelineConfigError
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.priority import SjfScheduler
from repro.sim.backend import (
    BACKEND_ENV_VAR,
    REPLAY_NOTES,
    check_backend,
    describe_backends,
    select_engine,
)
from repro.sim.compiled import kernel_available, kernel_loop, unavailable_reason
from repro.sim.flat_record import KINDS
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

needs_kernel = pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or "")

#: The kernel's LSTF port kind, the replay loop's default in these tests.
LSTF = KINDS[LstfScheduler]


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
        assert check_backend("python") == "python"

    def test_compiled_is_registered_but_unavailable(self, no_compiler):
        assert "compiled" in REPLAY_NOTES
        with pytest.raises(PipelineConfigError, match="unavailable"):
            check_backend("compiled")

    def test_supports_replay_declines_without_kernel(
        self, no_compiler, fixture_topology, monkeypatch
    ):
        """An unavailable engine is not asked at all: an unselected replay skips
        it (so nothing "declined"), and naming it is refused."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)  # CI runs this file under a pin
        assert select_engine(None, fixture_topology, "lstf") == ("python", [])
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
            check_backend("no-such-backend")
        message = str(excinfo.value)
        assert "unknown backend" in message
        assert "registered backends: compiled, python " in message

    def test_unavailable_backend_names_itself_and_the_fix(self, no_compiler):
        with pytest.raises(PipelineConfigError) as excinfo:
            check_backend("compiled")
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

    def test_cli_record_refuses_an_unknown_pin_as_replay_does(self, capsys, monkeypatch, tmp_path):
        """The recorder reads the pin through the same check: ``record`` exits 2
        and writes nothing."""
        out = tmp_path / "s.jsonl.gz"
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        assert main(["record", "I2-1G-10G@70", "--scale", "smoke", "--out", str(out)]) == 2
        assert "unknown backend 'bogus'" in capsys.readouterr().err
        assert not out.exists()

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


#: The kernel's typed inputs: offsets and port ids as int64, times as doubles.
ints, doubles = partial(array, "q"), partial(array, "d")
TYPED = {"hop_port": ints, "hop_tx": doubles, "keys": doubles}


@needs_kernel
class TestCompiledKernel:
    """Built-kernel specifics not covered by the equivalence suite."""

    def test_build_info_names_the_toolchain(self):
        [info] = [entry["build"] for entry in describe_backends() if entry["name"] == "compiled"]
        assert info["toolchain"] == "cpython-c-api"
        assert info["compiler"]
        assert info["kernel_version"] >= 1

    def test_kernel_validates_array_lengths(self):
        kernel = kernel_loop("run_flat_replay")
        with pytest.raises(ValueError, match="off"):
            kernel(doubles([0.0]), ints([0]), ints([]), doubles([]), doubles([1e-3]), LSTF, doubles([0.0]))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("ingress", [0.0], r"ingress must be an array\('d'\), not list"),
            ("off", array("d", [0.0, 1.0]), r"off must be an array\('q'\), not a buffer of format d"),
            ("hop_tx", array("f", [1e-3]), r"hop_tx must be an array\('d'\), not a buffer of format f"),
            ("keys", (0.0,), r"keys must be an array\('d'\), not tuple"),
        ],
    )
    def test_kernel_takes_typed_arrays_only(self, name, value, message):
        arrays = {"ingress": doubles([0.0]), "off": ints([0, 1]), "hop_port": ints([0]),
                  "hop_tx": doubles([1e-3]), "prop": doubles([1e-3]), "kind": LSTF, "keys": doubles([0.0])}
        with pytest.raises(TypeError, match=message):
            kernel_loop("run_flat_replay")(**{**arrays, name: value})

    @pytest.mark.parametrize(
        "off, inputs, message",
        [
            ([0, 2, 4], {"hop_port": [0]}, r"hop_port must have 4 entries, got 1"),
            ([0, 2, 4], {"hop_tx": [1e-3] * 3}, r"hop_tx must have 4 entries, got 3"),
            ([0, 2, 4], {"keys": [0.0]}, r"keys must have 2 entries, got 1"),
            ([-3, 1], {}, r"off\[0\] must be 0, got -3"),
            ([0, 2, 2], {}, r"packet 1 has no hops \(off\[1\]=2, off\[2\]=2\)"),
            ([0, 2, 4], {"hop_port": [0, 1, 0, 0]}, r"hop_port\[1\]=1 out of range for 1 ports"),
            ([0, 2, 4], {"faults": [(1, (), [])]}, r"faulted port 1 out of range for 1 ports"),
            ([0, 2, 4], {"kind": KINDS[SjfScheduler], "keys": None}, r"requires keys"),
            ([0, 2, 4], {"kind": KINDS[FairQueueingScheduler]}, r"not FIFO, keyed or LSTF"),
        ],
    )
    def test_kernel_refuses_what_the_loop_would_index_out_of_range(self, off, inputs, message):
        """The loop indexes hops, rows and ports unchecked, so the kernel
        checks every input against ``off`` and the port count before it runs
        (LSTF, one port, unless overridden)."""
        total, packets = max(off[-1], 0), len(off) - 1
        arrays = {
            "hop_port": ints([0] * total),
            "hop_tx": doubles([1e-3] * total),
            "prop": doubles([1e-3]),
            "kind": LSTF,
            "keys": doubles([0.0] * packets),
            **{name: TYPED[name](v) if name in TYPED and v is not None else v for name, v in inputs.items()},
        }
        with pytest.raises(ValueError, match=message):
            kernel_loop("run_flat_replay")(doubles([0.0, 1.0][:packets]), ints(off), **arrays)

    def test_kernel_empty_input(self):
        kernel = kernel_loop("run_flat_replay")
        empty = (doubles([]), doubles([]), doubles([]), [])
        assert kernel(doubles([]), ints([0]), ints([]), doubles([]), doubles([]), LSTF, doubles([])) == (empty, 0)

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
    def test_a_signal_interrupts_a_replay_in_the_kernel(self, fixture_topology):
        """A signal handler runs inside a long kernel replay, not after it
        drains: the per-cell ``SIGALRM`` deadline and Ctrl-C reach it."""
        n, path = 100_000, ("src0", "left", "right", "dst0")
        cols = ScheduleColumns(  # a backlog: offered 1500 B per us to a 10 Mb/s path
            packet_id=list(range(n)),
            flow_id=[0] * n,
            src=["src0"] * n,
            dst=["dst0"] * n,
            size_bytes=[1500] * n,
            ingress_time=[j * 1e-6 for j in range(n)],
            output_time=[1.0] * n,
            path=[path] * n,
            flow_size_bytes=[None] * n,
            deadline=[None] * n,
            hop_offset=ints(range(0, 3 * n + 1, 3)),
            hop_node=list(path[:-1]) * n,
            hop_arrival=doubles([0.0] * (3 * n)),
            hop_start_service=doubles([0.0] * (3 * n)),
            hop_departure=doubles([0.0] * (3 * n)),
        )
        schedule = Schedule.from_columns(cols)
        kernel, spent, alarm = kernel_loop("run_flat_replay"), [], []

        def timed(*args, **kwargs):
            if alarm:
                signal.setitimer(signal.ITIMER_REAL, alarm[0])
            began = time.perf_counter()
            try:
                return kernel(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - began)

        def deadline(signum, frame):
            raise TimeoutError("cell deadline")

        previous = signal.signal(signal.SIGALRM, deadline)
        try:
            with mock.patch.object(replay_compiled, "kernel_loop", lambda name: timed):
                for _ in range(3):
                    replay_schedule(fixture_topology, schedule, mode="lstf", backend="compiled")
                drained = min(spent)
                alarm.append(drained / 20)
                with pytest.raises(TimeoutError, match="cell deadline"):
                    replay_schedule(fixture_topology, schedule, mode="lstf", backend="compiled")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert spent[-1] < drained / 2, (spent[-1], drained)

    def test_a_mode_the_loop_does_not_model_is_refused_by_name(
        self, fixture_topology, recorded_schedule
    ):
        """Called directly, past ``decline_reason``, the engine names the mode
        rather than replay it as another or fail on the kernel's inputs."""
        with pytest.raises(ValueError, match="replay mode 'lstf-preemptive'"):
            replay_compiled.replay(fixture_topology, recorded_schedule, mode="lstf-preemptive")

    def test_zero_budget_executes_nothing(self, fixture_topology, recorded_schedule):
        replayed = replay_schedule(
            fixture_topology,
            recorded_schedule,
            mode="lstf",
            backend="compiled",
            max_events=0,
        )
        assert len(replayed) == 0
