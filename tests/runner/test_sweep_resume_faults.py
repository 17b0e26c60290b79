"""Checkpoint resume and worker-side fault capture."""

import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, SweepSpec, run_sweep
from repro.api.sweep import _cell_payload, _run_cell
from repro.core.errors import RunnerError
from repro.runner import CellResult, JsonlCheckpoint

SPEC = SweepSpec(
    providers=("ovhcloud",),
    mixes=("A", "C", "F", "O"),
    seeds=(5,),
    base=RunSpec(target_population=40),
)


def _truncate_after(path: Path, n_cells: int) -> list[str]:
    """Keep the header plus the first ``n_cells`` records; return kept keys."""
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = lines[: 1 + n_cells]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return [json.loads(line)["key"] for line in kept[1:]]


def test_resume_runs_only_missing_cells(tmp_path):
    out = tmp_path / "sweep.jsonl"
    full = run_sweep(SPEC, workers=1, out=str(out))
    assert full.ok and len(full.executed) == 4

    # Simulate a sweep killed after two cells.
    kept = _truncate_after(out, 2)
    resumed = run_sweep(SPEC, workers=2, out=str(out), resume=True)
    assert resumed.ok
    assert sorted(resumed.skipped) == sorted(kept)
    assert sorted(resumed.executed) == sorted(
        set(r.key for r in full.results.values()) - set(kept)
    )
    # The resumed result set equals the uninterrupted one.
    assert resumed.results == full.results
    # And the checkpoint now satisfies a second resume completely.
    again = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert again.executed == () and len(again.skipped) == 4


def _load_cells(path: Path) -> dict[str, CellResult]:
    records = JsonlCheckpoint(path, "spec", RunnerError).load(SPEC.fingerprint())
    return {r["key"]: CellResult.from_record(r) for r in records}


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    """One uninterrupted checkpointed sweep: (result, file bytes)."""
    out = tmp_path_factory.mktemp("full") / "sweep.jsonl"
    full = run_sweep(SPEC, workers=1, out=str(out))
    assert full.ok
    return full, out.read_bytes()


def test_checkpoint_header_bytes_are_pinned(full_sweep):
    # A literal, not a round trip: the file format must not move by a byte.
    header = full_sweep[1].split(b"\n", 1)[0]
    assert hashlib.sha256(header).hexdigest()[:16] == "f968897ff8b2cdff"


def test_resume_tolerates_torn_last_line(tmp_path, full_sweep):
    out = tmp_path / "sweep.jsonl"
    full, data = full_sweep
    text = data.decode("utf-8").splitlines()
    # A kill mid-write leaves a truncated record on the last line.
    out.write_text("\n".join(text[:2]) + '\n{"kind": "cell", "pro',
                   encoding="utf-8")
    resumed = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert resumed.ok
    assert len(resumed.skipped) == 1 and len(resumed.executed) == 3
    assert resumed.results == full.results
    # The fragment was cut off before appending: the finished file
    # holds every cell, so a second resume has nothing left to run.
    assert _load_cells(out) == full.results
    again = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert again.executed == () and len(again.skipped) == 4


@pytest.mark.parametrize("cut", [1, 2, 25, 300])
def test_resume_after_a_tear_inside_the_last_record(tmp_path, full_sweep, cut):
    # cut=1 loses only the newline: a record is not on file until its
    # line is terminated, whatever the fragment happens to parse as.
    out = tmp_path / "sweep.jsonl"
    full, data = full_sweep
    assert cut < len(data.splitlines()[-1]) + 1
    out.write_bytes(data[:-cut])
    resumed = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert len(resumed.skipped) == 3 and len(resumed.executed) == 1
    assert resumed.results == full.results
    assert sorted(out.read_bytes().splitlines()) == sorted(data.splitlines())
    again = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert again.executed == () and len(again.skipped) == 4


@pytest.mark.parametrize("keep", [0, 1, 40])
def test_resume_refuses_a_torn_header(tmp_path, full_sweep, keep):
    # Never a silent fresh start: the typed error leaves the file alone.
    out = tmp_path / "sweep.jsonl"
    out.write_bytes(full_sweep[1][:keep])
    with pytest.raises(RunnerError, match="no intact header"):
        run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert out.read_bytes() == full_sweep[1][:keep]


def test_grids_differing_only_in_base_cell_fields_share_a_checkpoint(tmp_path):
    # Every cell replaces base's provider, mix and seed, so those must
    # not split the fingerprint of two grids with equal cells.
    one = SPEC.replace(mixes=("A",), base=RunSpec(target_population=40, seed=1))
    two = SPEC.replace(mixes=("A",), base=RunSpec(target_population=40, seed=2,
                                                  provider="ovhcloud", mix="F"))
    assert [c.key for c in one.cells()] == [c.key for c in two.cells()]
    assert one.fingerprint() == two.fingerprint()
    out = tmp_path / "sweep.jsonl"
    first = run_sweep(one, workers=1, out=str(out))
    resumed = run_sweep(two, workers=1, out=str(out), resume=True)
    assert resumed.executed == () and resumed.results == first.results


def test_resume_refuses_foreign_checkpoint(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, out=str(out))
    other = SweepSpec(base=RunSpec(target_population=40), providers=("ovhcloud",),
                      mixes=("A",), seeds=(6,))
    with pytest.raises(RunnerError, match="different spec.*refusing to resume"):
        run_sweep(other, workers=1, out=str(out), resume=True)


def test_resume_refuses_an_older_spec_version_by_name(tmp_path):
    # A checkpoint written before the grid took a base RunSpec (v2).
    out = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, out=str(out))
    header, *cells = out.read_text(encoding="utf-8").splitlines()
    old = json.loads(header)
    old["fingerprint"] = "0" * 16
    old["spec"] = {"version": 2, "providers": ["ovhcloud"], "target_population": 40}
    out.write_text("\n".join([json.dumps(old), *cells]) + "\n", encoding="utf-8")
    with pytest.raises(RunnerError, match="version 2 spec.*writes version 3"):
        run_sweep(SPEC, workers=1, out=str(out), resume=True)


def test_resume_requires_checkpoint_path():
    with pytest.raises(RunnerError, match="requires a checkpoint path"):
        run_sweep(SPEC, resume=True)


def test_failed_cell_is_recorded_and_siblings_complete(tmp_path):
    # An unknown provider fails at worker-side catalog resolution; the
    # sibling provider's cells must still complete.
    spec = SweepSpec(
        providers=("ovhcloud", "nosuch"),
        mixes=("F",),
        seeds=(5,),
        base=RunSpec(target_population=40),
    )
    out = tmp_path / "faulty.jsonl"
    result = run_sweep(spec, workers=2, out=str(out))
    assert not result.ok
    ok = result.results["ovhcloud/F/5"]
    failed = result.results["nosuch/F/5"]
    assert ok.ok and ok.outcome is not None
    assert failed.status == "failed" and failed.outcome is None
    # RunSpec parsing happens inside the worker's fault capture, so a
    # bad knob is a failed record (ConfigError), not a crashed sweep.
    assert failed.error["type"] == "ConfigError"
    assert "unknown provider" in failed.error["message"]
    assert "Traceback" in failed.error["traceback"]
    assert failed.seed == 5  # the seed needed to replay the failure
    with pytest.raises(RunnerError, match="1/2 sweep cells failed"):
        result.raise_on_failure()

    # The failure is checkpointed like any other record...
    loaded = JsonlCheckpoint(out, "spec", RunnerError).load(spec.fingerprint())
    assert {r["key"]: r["status"] for r in loaded}["nosuch/F/5"] == "failed"
    # ...and a resume retries exactly the failed cell.
    resumed = run_sweep(spec, workers=1, out=str(out), resume=True)
    assert resumed.executed == ("nosuch/F/5",)
    assert resumed.skipped == ("ovhcloud/F/5",)
    assert not resumed.ok


def test_infeasible_sizing_is_captured_not_raised():
    # A machine far smaller than the smallest flavor makes the sizing
    # search throw inside the worker; the sweep must survive it.
    spec = SweepSpec(
        providers=("ovhcloud",),
        mixes=("A",),
        seeds=(5,),
        base=RunSpec(target_population=5, host_cpus=1, host_mem_gb=0.5),
    )
    result = run_sweep(spec, workers=1)
    assert not result.ok
    (failure,) = result.failures()
    assert failure.error["type"] == "SimulationError"


def test_run_cell_payload_roundtrip():
    # The worker function is a pure record transformer over primitives.
    cell = SPEC.cells()[0]
    record = _run_cell(_cell_payload(SPEC, cell))
    assert record["status"] == "ok"
    assert record["key"] == cell.key
    assert record["elapsed_s"] > 0
    assert record["outcome"]["seed"] == cell.seed


def _evaluate_or_die(spec, **kwargs):
    """``repro.api.evaluate`` for forked pool workers: the mix-C cell
    kills its process once both siblings have finished; the others
    leave a marker behind."""
    from repro.api.run import evaluate

    markers = Path(os.environ["REPRO_TEST_MARKERS"])
    if spec.mix == (75.0, 0.0, 25.0):  # the sweep ships mix C as its triple
        deadline = time.monotonic() + 30.0
        while len(list(markers.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # let the siblings' results reach the parent
        os._exit(1)
    outcome = evaluate(spec, **kwargs)
    (markers / spec.mix_label).touch()
    return outcome


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the fault is injected by patching the parent before the fork",
)
def test_a_killed_worker_is_a_failed_cell_not_a_crashed_sweep(tmp_path, monkeypatch):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKERS", str(markers))
    monkeypatch.setattr("repro.api.sweep.evaluate", _evaluate_or_die)
    spec = SweepSpec(base=RunSpec(target_population=40), providers=("ovhcloud",),
                     mixes=("A", "C", "O"), seeds=(5,))
    out = tmp_path / "sweep.jsonl"
    result = run_sweep(spec, workers=3, out=str(out))
    dead = result.results["ovhcloud/C/5"]
    assert dead.status == "failed" and dead.error["type"] == "BrokenProcessPool"
    assert result.results["ovhcloud/A/5"].ok and result.results["ovhcloud/O/5"].ok
    # The failure is on file; a resume (with a healthy worker) retries it.
    monkeypatch.undo()
    resumed = run_sweep(spec, workers=1, out=str(out), resume=True)
    assert resumed.ok and resumed.executed == ("ovhcloud/C/5",)
