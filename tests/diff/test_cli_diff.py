"""``python -m repro diff``: sources, exit codes, backends, error paths."""

import gzip
import hashlib
import json
import shutil

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
    rows = list(schedule)  # fresh rows: edits never reach `schedule`
    victim = rows[len(rows) // 2]
    node, arrival, start, departure = victim["hops"][0]
    victim["hops"][0] = (node, arrival, start, departure + 1e-6)
    save_schedule(dst, Schedule.from_rows(rows), meta=meta)
    return victim["packet_id"]


#: sha256 of ``diff smoke.jsonl.gz nudged.jsonl.gz --json`` and of its text
#: report, where ``nudged`` is ``perturb_file(smoke)``; captured when the
#: comparator still walked per-packet objects, so the walk over rows and hop
#: columns is held to the same bytes.
NUDGED_JSON_SHA256 = "14757c8be0791a5390d87eb65c4a2a24c01d2714d477a9b3d56c4f4d873b347d"
NUDGED_TEXT_SHA256 = "bd142ca8e865dab0297bceb4594734dcb08dc0d23b5fd19b6ec7684ed7c3386d"


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

    def test_nudged_hop_output_is_pinned(self, recorded, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(recorded, "smoke.jsonl.gz")
        assert perturb_file("smoke.jsonl.gz", "nudged.jsonl.gz") == 14
        assert cli_main(["diff", "smoke.jsonl.gz", "nudged.jsonl.gz", "--json"]) == 1
        out = capsys.readouterr().out
        divergence = json.loads(out)["divergence"]
        assert divergence["fields"] == [
            {"field": "hops[0].departure_time", "a": 0.09920077522423834, "b": 0.09920177522423834}
        ]
        assert divergence["port"] == "host-atlanta-0-0"
        assert [n["packet_id"] for n in divergence["context_a"]] == [5, 7, 15, 6, 8, 10, 12, 17]
        assert hashlib.sha256(out.encode()).hexdigest() == NUDGED_JSON_SHA256
        assert cli_main(["diff", "smoke.jsonl.gz", "nudged.jsonl.gz"]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == NUDGED_TEXT_SHA256


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

    @pytest.mark.skipif(not kernel_available(), reason="no compiled kernel here")
    def test_a_declined_replay_says_why_and_labels_what_ran(self, recorded, capsys):
        # A fault plan runs on compiled; preemptive LSTF is declined.
        on_compiled = ["--backend", "compiled"]
        assert cli_main(["diff", "--replay", recorded, "--fault", "loss-5pct", *on_compiled]) == 0
        out, err = capsys.readouterr()
        assert "(python vs compiled)" in out and not err
        assert cli_main(["diff", "--replay", recorded, "--mode", "lstf-preemptive", *on_compiled]) == 0
        out, err = capsys.readouterr()
        assert (
            "note: backend 'compiled' declines this configuration (replay mode lstf-preemptive)"
            in err
        )
        assert "(python vs python#2)" in out and "compiled" not in out
        # fifo has a key model on the flat kernel: nothing declines it.
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

    def test_corrupt_deflate_body_exit_2(self, recorded, tmp_path, capsys):
        """Bytes flipped inside the compressed body fail in zlib, not gzip:
        still a load error, never a traceback."""
        payload = bytearray(open(recorded, "rb").read())
        body = slice(len(payload) // 3, len(payload) // 3 + 64)
        payload[body] = bytes(byte ^ 0xFF for byte in payload[body])
        flipped = tmp_path / "flipped.jsonl.gz"
        flipped.write_bytes(bytes(payload))
        assert cli_main(["diff", "--replay", str(flipped)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "corrupt compressed data" in err

    def test_a_row_of_the_wrong_type_exit_2(self, recorded, tmp_path, capsys):
        """Valid JSON, valid header, a row whose ``path`` is null: a load
        error naming the packet, never a TypeError traceback."""
        with gzip.open(recorded, "rt") as handle:
            header, first, *rest = handle.read().splitlines()
        broken = tmp_path / "null-path.jsonl.gz"
        with gzip.open(broken, "wt") as handle:
            handle.write("\n".join([header, json.dumps({**json.loads(first), "path": None}), *rest]) + "\n")
        assert cli_main(["diff", recorded, str(broken)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and f"packet {json.loads(first)['packet_id']}: malformed row" in err

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
