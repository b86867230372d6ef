"""``python -m repro diff``: sources, exit codes, backends, error paths."""

import gzip
import json

import pytest

from repro.__main__ import main as cli_main
from repro.core.schedule import Schedule, load_schedule, save_schedule
from repro.sim.backend import describe_backends
from repro.sim.compiled import kernel_available


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One smoke schedule file, recorded once for the whole module."""
    path = tmp_path_factory.mktemp("diff") / "sched.jsonl.gz"
    code = cli_main(
        ["record", "I2-1G-10G@70", "--scale", "smoke", "--out", str(path)]
    )
    assert code == 0
    return str(path)


def perturb_file(src, dst):
    """Copy a schedule file with one hop departure nudged; return the victim id."""
    schedule, meta = load_schedule(src)
    records = schedule.records()  # views: edits never reach `schedule`
    victim = records[len(records) // 2]
    victim.hops[0].departure_time += 1e-6
    save_schedule(dst, Schedule(records), meta=meta)
    return victim.packet_id


class TestDiffFiles:
    def test_identical_files_match_exit_0(self, recorded, capsys):
        assert cli_main(["diff", recorded, recorded]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_perturbed_file_diverges_exit_1(self, recorded, tmp_path, capsys):
        other = str(tmp_path / "perturbed.jsonl.gz")
        victim = perturb_file(recorded, other)
        assert cli_main(["diff", recorded, other]) == 1
        out = capsys.readouterr().out
        assert f"packet {victim}" in out
        assert "hops[0].departure_time" in out

    def test_json_payload(self, recorded, tmp_path, capsys):
        other = str(tmp_path / "perturbed.jsonl.gz")
        victim = perturb_file(recorded, other)
        assert cli_main(["diff", recorded, other, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is False
        assert payload["divergence"]["packet_id"] == victim
        assert cli_main(["diff", recorded, recorded, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"match": True, "divergence": None}


class TestDiffReplay:
    def test_replay_bit_clean_across_available_backends(self, recorded, capsys):
        # The acceptance sweep: the recorded schedule must replay
        # bit-identically on every backend this environment can run.
        available = [entry["name"] for entry in describe_backends() if entry["available"]]
        for backend in available:
            code = cli_main(["diff", "--replay", recorded, "--backend", backend])
            out, err = capsys.readouterr()
            assert code == 0, f"backend {backend} diverged:\n{out}"
            assert "bit-identical" in out and not err
            assert f"(python vs {backend if backend != 'python' else 'python#2'})" in out

    def test_a_declined_replay_says_why_and_labels_what_ran(self, recorded, capsys):
        # A fault plan runs on vectorized; only compiled declines it.
        faulted = ["diff", "--replay", recorded, "--fault", "loss-5pct", "--backend"]
        assert cli_main([*faulted, "vectorized"]) == 0
        out, err = capsys.readouterr()
        assert "(python vs vectorized)" in out and not err
        if not kernel_available():
            return
        assert cli_main([*faulted, "compiled"]) == 0
        out, err = capsys.readouterr()
        assert "note: backend 'compiled' declines this configuration (fault plan)" in err
        assert "(python vs python#2)" in out and "compiled" not in out
        # fifo has a key model on both flat kernels: nothing declines it.
        assert cli_main(["diff", "--replay", recorded, "--mode", "fifo", "--backend", "compiled"]) == 0
        out, err = capsys.readouterr()
        assert "(python vs compiled)" in out and not err

    def test_replay_default_is_determinism_twin(self, recorded, capsys):
        assert cli_main(["diff", "--replay", recorded]) == 0
        assert "python#2" in capsys.readouterr().out

    def test_replay_other_modes(self, recorded, capsys):
        for mode in ("edf", "fifo", "omniscient"):
            assert cli_main(["diff", "--replay", recorded, "--mode", mode]) == 0
        capsys.readouterr()

    def test_replay_with_slack_policy_and_fault(self, recorded, capsys):
        code = cli_main(
            [
                "diff",
                "--replay",
                recorded,
                "--slack-policy",
                "zero",
                "--fault",
                "loss-1pct",
                "--fault-seed",
                "3",
            ]
        )
        assert code == 0, capsys.readouterr().out


class TestDiffErrors:
    def test_no_source_exit_2(self, capsys):
        assert cli_main(["diff"]) == 2
        assert "exactly one comparison source" in capsys.readouterr().err

    def test_two_sources_exit_2(self, recorded, capsys):
        assert cli_main(["diff", recorded, recorded, "--replay", recorded]) == 2
        assert "exactly one comparison source" in capsys.readouterr().err

    def test_one_positional_exit_2(self, recorded, capsys):
        assert cli_main(["diff", recorded]) == 2
        assert "exactly two schedule files" in capsys.readouterr().err

    def test_missing_file_exit_2(self, recorded, capsys):
        assert cli_main(["diff", recorded, "/nonexistent/x.jsonl.gz"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_truncated_gzip_exit_2(self, recorded, tmp_path, capsys):
        trunc = tmp_path / "trunc.jsonl.gz"
        trunc.write_bytes(open(recorded, "rb").read()[:50])
        assert cli_main(["diff", recorded, str(trunc)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_unknown_mode_exit_2(self, recorded, capsys):
        assert cli_main(["diff", "--replay", recorded, "--mode", "bogus"]) == 2
        assert "unknown replay mode" in capsys.readouterr().err

    def test_unknown_backend_exit_2(self, recorded, capsys):
        assert cli_main(["diff", "--replay", recorded, "--backend", "bogus"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_schedule_without_topology_exit_2(self, recorded, tmp_path, capsys):
        schedule, _ = load_schedule(recorded)
        bare = tmp_path / "bare.jsonl.gz"
        save_schedule(bare, schedule, meta={})
        assert cli_main(["diff", "--replay", str(bare)]) == 2
        assert "no topology spec" in capsys.readouterr().err

    def test_bogus_case_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "case.json"
        bad.write_text("{\"format\": \"something-else\"}\n")
        assert cli_main(["diff", "--case", str(bad)]) == 2
        assert "cannot load case" in capsys.readouterr().err


class TestReplayLoadErrors:
    """Satellite: `repro replay` exits 2 cleanly on unreadable schedules."""

    def test_missing_path_exit_2(self, capsys):
        assert cli_main(["replay", "/nonexistent/sched.jsonl.gz"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_truncated_gzip_exit_2(self, recorded, tmp_path, capsys):
        trunc = tmp_path / "trunc.jsonl.gz"
        trunc.write_bytes(open(recorded, "rb").read()[:50])
        assert cli_main(["replay", str(trunc)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "end-of-stream" in err

    def test_record_missing_field_exit_2(self, recorded, tmp_path, capsys):
        # A structurally valid file whose record lines lack packet_id used
        # to escape as a KeyError traceback.
        broken = tmp_path / "broken.jsonl.gz"
        with gzip.open(recorded, "rt") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[1])
        record.pop("packet_id", None)
        with gzip.open(broken, "wt") as handle:
            handle.write(lines[0] + "\n")
            handle.write(json.dumps(record) + "\n")
        assert cli_main(["replay", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "packet_id" in err
