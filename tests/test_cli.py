"""CLI tests (direct main() invocation; no subprocesses needed)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

OVERSUB_SMOKE = Path(__file__).parent / "oversub" / "data" / "oversub_smoke.json"


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "azure" in out and "ovhcloud" in out
    assert "Table II" in out and "3:1" in out


def test_generate_and_size_roundtrip(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["generate", "--provider", "ovhcloud", "--mix", "F",
                 "--population", "80", "--seed", "1", "-o", str(trace)]) == 0
    assert trace.exists()
    out = capsys.readouterr().out
    assert "wrote" in out

    assert main(["size", str(trace), "--policy", "first_fit"]) == 0
    out = capsys.readouterr().out
    assert "minimal cluster" in out
    assert "lower bound" in out


def test_generate_with_share_mix(tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["generate", "--mix", "40,30,30", "--population", "50",
                 "-o", str(trace)]) == 0


def test_generate_invalid_mix(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--mix", "nope", "-o", str(tmp_path / "x.jsonl")])


def test_evaluate_command(capsys):
    assert main(["evaluate", "--provider", "ovhcloud", "--mix", "F",
                 "--population", "80", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "SlackVM shared cluster" in out
    assert "savings" in out


def test_sweep_command(capsys):
    assert main(["sweep", "--provider", "azure", "--population", "60",
                 "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Figure 4" in out


def test_sweep_command_parallel_checkpoint_resume(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    args = ["sweep", "--provider", "ovhcloud", "--population", "40",
            "--mixes", "A,F", "--out", str(out_file)]
    assert main(args + ["--workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3" in captured.out
    assert "2 cells run" in captured.err
    first = sorted(out_file.read_text().splitlines())
    # Resuming a complete checkpoint re-runs nothing.
    assert main(args + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "0 cells run, 2 resumed" in captured.err
    # A fresh serial run of the same spec is byte-identical.
    serial_file = tmp_path / "serial.jsonl"
    assert main(["sweep", "--provider", "ovhcloud", "--population", "40",
                 "--mixes", "A,F", "--out", str(serial_file)]) == 0
    capsys.readouterr()
    assert sorted(serial_file.read_text().splitlines()) == first


def test_sweep_command_num_seeds(capsys):
    assert main(["sweep", "--provider", "ovhcloud", "--population", "40",
                 "--mixes", "F", "--num-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out


def test_sweep_resume_requires_out():
    with pytest.raises(SystemExit, match="--resume requires --out"):
        main(["sweep", "--resume"])


def test_testbed_command(capsys):
    assert main(["testbed", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "Table IV" in out and "Figure 2" in out


def test_custom_machine_spec(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(["generate", "--population", "40", "-o", str(trace)])
    capsys.readouterr()
    assert main(["size", str(trace), "--machine", "64:256"]) == 0
    out = capsys.readouterr().out
    assert "64 CPUs" in out


def test_invalid_machine_spec_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["size", "x.jsonl", "--machine", "banana"])


@pytest.mark.parametrize("machine", ["32:nan", "32:inf"])
def test_non_finite_machine_memory_is_a_usage_error(machine, capsys):
    # A bad flag value is an argparse usage error (exit 2), not a
    # traceback from deep in the sizing search or a run on infinite hosts.
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--population", "30", "--machine", machine])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_repro_error_returns_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"vm_id": "a"}\n')  # missing required fields
    assert main(["size", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_policy_option(capsys):
    assert main(["evaluate", "--mix", "F", "--population", "80",
                 "--seed", "1", "--policy", "progress_bestfit"]) == 0
    assert "savings" in capsys.readouterr().out


def test_audit_command_smoke(tmp_path, capsys):
    """Seeded random workload replayed through both engines: the audit
    must report zero divergences and write the JSON dump."""
    import json

    dump = tmp_path / "audit.json"
    assert main(["audit", "--policy", "progress", "--vms", "40",
                 "--seed", "7", "-o", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "divergences: 0" in out
    assert "object path:" in out and "vector path:" in out
    payload = json.loads(dump.read_text())
    assert payload["ok"] is True
    assert payload["policy"] == "progress"
    assert payload["num_arrivals"] > 0
    assert len(payload["decisions"]["object"]) == payload["num_arrivals"]
    assert len(payload["decisions"]["vector"]) == payload["num_arrivals"]
    assert payload["object"]["metrics"]["arrivals"]["value"] == payload["num_arrivals"]


def test_audit_no_decisions_flag(tmp_path, capsys):
    import json

    dump = tmp_path / "audit.json"
    assert main(["audit", "--vms", "25", "--seed", "3", "--policy", "first_fit",
                 "--pms", "4", "-o", str(dump), "--no-decisions"]) == 0
    payload = json.loads(dump.read_text())
    assert "decisions" not in payload
    assert payload["num_hosts"] == 4


def test_python_dash_m_entry_point():
    """``python -m repro`` must expose the same CLI."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "audit" in proc.stdout


def test_shard_command_verify_and_baseline(capsys):
    assert main(["shard", "--provider", "ovhcloud", "--mix", "F",
                 "--population", "40", "--seed", "3", "--hosts", "6",
                 "--shards", "2", "--workers", "1",
                 "--verify", "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s) via hash routing" in out
    assert "byte-identical" in out
    assert "unsharded baseline" in out


def test_shard_command_checkpoint_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "shards.jsonl")
    args = ["shard", "--population", "40", "--seed", "3", "--hosts", "6",
            "--shards", "3", "--workers", "1", "--checkpoint", ckpt]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    # Identical placed/rejected/pooled counts whether computed or
    # replayed from the checkpoint (the wall clock line differs).
    def counts(out):
        line = next(ln for ln in out.splitlines() if ln.startswith("sharded"))
        return line.split("ev/s), ")[1]
    assert counts(first) == counts(resumed)


@pytest.mark.parametrize("command", ["evaluate", "sweep", "oversub", "shard"])
def test_no_subcommand_takes_a_kernel_flag(command, capsys):
    # The naive kernel is a test oracle, not a run knob.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--kernel", "naive"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "oversub"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_num_seeds_below_one_is_a_usage_error(command, value, capsys):
    # Refused, not read as one seed.
    with pytest.raises(SystemExit) as exc:
        main([command, "--num-seeds", value])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_oversub_strategy_list_is_checked(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oversub", "--strategies", ","])
    assert exc.value.code == 2
    assert "at least one strategy" in capsys.readouterr().err
    # A repeated strategy or mix is refused, not run (and printed) twice.
    for flag, value in (("--strategies", "static,static"), ("--mixes", "F,F")):
        assert main(["oversub", "--population", "30", flag, value]) == 1
        assert "duplicate" in capsys.readouterr().err


def test_shard_checkpoint_needs_more_than_one_shard(tmp_path, capsys):
    ckpt = tmp_path / "ck.jsonl"
    assert main(["shard", "--shards", "1", "--population", "40",
                 "--checkpoint", str(ckpt)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not ckpt.exists()


def test_shard_resume_requires_checkpoint():
    with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
        main(["shard", "--resume", "--hosts", "4", "--population", "10"])


def test_serve_command_writes_slo_report(tmp_path, capsys):
    import json
    import math

    report = tmp_path / "slo.json"
    assert main(["serve", "--duration", "3", "--rate", "20", "--seed", "7",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "placement latency p50" in out
    assert "timeout rate" in out
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert math.isfinite(payload["latency"]["placement_p99_s"])
    assert payload["counts"]["arrivals"] > 0
    assert payload["spec"]["seed"] == 7
    assert payload["decision_log"]


def test_serve_command_sharded(capsys):
    assert main(["serve", "--duration", "2", "--rate", "20", "--seed", "3",
                 "--shards", "2", "--queue-bound", "8"]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s)" in out


def test_evaluate_with_shards(capsys):
    assert main(["evaluate", "--provider", "ovhcloud", "--mix", "F",
                 "--population", "60", "--seed", "1",
                 "--shards", "2"]) == 0
    assert "savings" in capsys.readouterr().out


def test_subcommand_set():
    (sub,) = (a for a in build_parser()._actions if a.choices)
    assert list(sub.choices) == [
        "tables", "generate", "size", "evaluate", "sweep", "oversub",
        "shard", "serve", "testbed", "audit",
    ]


def test_sweep_mixes_accepts_a_labelled_triple_in_a_list(capsys):
    assert main(["sweep", "--population", "30",
                 "--mixes", "A,hot:50,0,50"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {"A", "hot"} <= {row[0] for row in rows if row}


def test_oversub_mixes_accepts_a_labelled_triple(capsys):
    assert main(["oversub", "--strategies", "static", "--population", "30",
                 "--mixes", "hot:50,0,50,F"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {row[2] for row in rows if row[:1] == ["static"]} == {"hot", "F"}


def test_oversub_command_reproduces_the_smoke_fixture(tmp_path):
    # The same run as `make sweep-oversub-smoke`, held to the same bytes.
    out = tmp_path / "oversub_smoke.json"
    assert main(["oversub", "--population", "60", "--seed", "3",
                 "--update-every", "1800", "-o", str(out)]) == 0
    assert out.read_bytes() == OVERSUB_SMOKE.read_bytes()


def test_bare_triple_in_a_mix_list_names_the_label_form(capsys):
    assert main(["sweep", "--population", "30", "--mixes", "A,50,0,50"]) == 1
    assert "label:S1,S2,S3" in capsys.readouterr().err
