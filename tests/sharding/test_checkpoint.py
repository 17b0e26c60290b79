"""Shard checkpoint: resume, fingerprint refusal, torn-line tolerance,
and a shard worker killed mid-run."""

import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, build_config, build_machines, build_workload
from repro.core import OversubscriptionLevel, VMRequest, VMSpec
from repro.core.errors import ConfigError, ShardingError
from repro.hardware import MachineSpec
from repro.runner import JsonlCheckpoint
from repro.sharding import ShardedSimulation, ShardPlan
from repro.simulator import VectorSimulation, result_stream


def _machines(n: int):
    return [MachineSpec(f"pm-{i}", 16, 64.0) for i in range(n)]


def _workload(n: int):
    return [
        VMRequest(
            vm_id=f"vm-{i:04d}",
            spec=VMSpec(2, 8.0),
            level=OversubscriptionLevel(float(1 + i % 3)),
            arrival=float(i),
            departure=float(i) + 15.0 if i % 3 else None,
        )
        for i in range(n)
    ]


def _truncate_to_shards(path, n: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[: 1 + n]) + "\n", encoding="utf-8")


def _shards_on_file(path) -> list[int]:
    records = JsonlCheckpoint(path, "plan", ShardingError).load()
    return sorted(r["shard"] for r in records if r["ok"])


def _resume(machines, out):
    return ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    )


def test_fingerprints_and_header_bytes_are_pinned(tmp_path):
    # Literals, not round trips: the file format must not move by a byte.
    assert ShardPlan(10, 3).fingerprint() == "2541b9d9ecfb6e21"
    assert ShardPlan(10, 3).fingerprint("abc") == "845b43ce829b8f7d"
    spec = RunSpec(provider="ovhcloud", mix="F", target_population=40, seed=5,
                   num_hosts=6, shards=2)
    wl = build_workload(spec)
    out = tmp_path / "shards.jsonl"
    ShardedSimulation(
        build_machines(spec, wl), build_config(spec, wl), shards=2, workers=1,
        seed=5, checkpoint=str(out),
    ).run(wl)
    header = out.read_bytes().split(b"\n", 1)[0]
    assert hashlib.sha256(header).hexdigest()[:16] == "6ec1ac84939798fc"


def test_checkpointed_run_writes_header_and_one_record_per_shard(tmp_path):
    out = tmp_path / "shards.jsonl"
    sim = ShardedSimulation(
        _machines(6), shards=3, workers=1, checkpoint=str(out)
    )
    sim.run(_workload(30))
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["plan"]["shards"] == 3
    shards = [json.loads(line)["shard"] for line in lines[1:]]
    assert sorted(shards) == [0, 1, 2]


def test_resume_replays_missing_shards_byte_identically(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)

    # Simulate a run killed after one shard completed.
    _truncate_to_shards(out, 1)
    resumed = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert result_stream(resumed) == result_stream(full)
    # The file is whole again: a second resume runs nothing new.
    again = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert result_stream(again) == result_stream(full)


def test_resume_tolerates_torn_last_line(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)
    text = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join(text[:2]) + '\n{"kind": "shard", "sh',
                   encoding="utf-8")
    resumed = _resume(machines, out).run(wl)
    assert result_stream(resumed) == result_stream(full)
    # The fragment was cut off before appending: the finished file
    # holds every shard, so a second resume has nothing left to run.
    assert _shards_on_file(out) == [0, 1, 2]
    before = out.read_bytes()
    again = _resume(machines, out).run(wl)
    assert result_stream(again) == result_stream(full)
    assert out.read_bytes() == before


@pytest.mark.parametrize("cut", [1, 2, 25, 300])
def test_resume_after_a_tear_inside_the_last_record(tmp_path, cut):
    # cut=1 loses only the newline: a record is not on file until its
    # line is terminated, whatever the fragment happens to parse as.
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)
    data = out.read_bytes()
    assert cut < len(data.splitlines()[-1]) + 1
    out.write_bytes(data[:-cut])
    resumed = _resume(machines, out).run(wl)
    assert result_stream(resumed) == result_stream(full)
    assert _shards_on_file(out) == [0, 1, 2]
    before = out.read_bytes()
    _resume(machines, out).run(wl)
    assert out.read_bytes() == before


@pytest.mark.parametrize("keep", [0, 1, 40])
def test_resume_refuses_a_torn_header(tmp_path, keep):
    # Never a silent fresh start: the typed error leaves the file alone.
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    ShardedSimulation(machines, shards=3, workers=1, checkpoint=str(out)).run(wl)
    torn = out.read_bytes()[:keep]
    out.write_bytes(torn)
    with pytest.raises(ShardingError, match="no intact header"):
        _resume(machines, out).run(wl)
    assert out.read_bytes() == torn


def test_resume_refuses_foreign_plan(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    ShardedSimulation(machines, shards=3, workers=1, checkpoint=str(out)).run(wl)
    with pytest.raises(ShardingError, match="different plan or workload.*refusing to resume"):
        ShardedSimulation(
            machines, shards=2, workers=1, checkpoint=str(out), resume=True
        ).run(wl)


def test_resume_refuses_foreign_trace(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines = _machines(6)
    ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(_workload(30))
    with pytest.raises(ShardingError, match="different plan or workload.*refusing to resume"):
        ShardedSimulation(
            machines, shards=3, workers=1, checkpoint=str(out), resume=True
        ).run(_workload(31))


def test_load_rejects_non_checkpoint_files(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"kind": "cell"}\n', encoding="utf-8")
    with pytest.raises(ShardingError, match="no header"):
        JsonlCheckpoint(path, "plan", ShardingError).load()
    missing = JsonlCheckpoint(tmp_path / "nope.jsonl", "plan", ShardingError)
    with pytest.raises(ShardingError, match="no checkpoint"):
        missing.load()


class _DyingSimulation(VectorSimulation):
    """For forked pool workers: shard 1 (hosts pm-2, pm-3) kills its
    process once both siblings have finished; the others leave a marker."""

    def run(self, workload):
        markers = Path(os.environ["REPRO_TEST_MARKERS"])
        first = self.machines[0].name
        if first == "pm-2":
            deadline = time.monotonic() + 30.0
            while len(list(markers.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # let the siblings' results reach the parent
            os._exit(1)
        result = super().run(workload)
        (markers / first).touch()
        return result


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the fault is injected by patching the parent before the fork",
)
def test_a_killed_shard_worker_is_a_sharding_error_and_resumable(tmp_path, monkeypatch):
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(machines, shards=3, workers=1).run(wl)
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKERS", str(markers))
    monkeypatch.setattr(
        "repro.sharding.dispatcher.VectorSimulation", _DyingSimulation
    )
    out = tmp_path / "shards.jsonl"
    with pytest.raises(ShardingError, match="shard 1 failed with BrokenProcessPool"):
        ShardedSimulation(
            machines, shards=3, workers=3, checkpoint=str(out)
        ).run(wl)
    # The shards that finished are on file; a resume (with a healthy
    # worker) runs only the dead one and merges byte-identically.
    assert _shards_on_file(out) == [0, 2]
    monkeypatch.undo()
    resumed = _resume(machines, out).run(wl)
    assert result_stream(resumed) == result_stream(full)
    assert _shards_on_file(out) == [0, 1, 2]


@pytest.mark.parametrize(
    ("shards", "checkpoint", "resume"),
    [(1, True, False), (1, True, True), (1, False, True), (3, False, True)],
)
def test_a_checkpoint_option_that_would_be_ignored_is_a_config_error(
    tmp_path, shards, checkpoint, resume
):
    # shards=1 runs in process and writes no checkpoint; resume needs one.
    out = tmp_path / "shards.jsonl"
    sim = ShardedSimulation(
        _machines(6), shards=shards, workers=1,
        checkpoint=str(out) if checkpoint else None, resume=resume,
    )
    with pytest.raises(ConfigError):
        sim.run(_workload(30))
    assert not out.exists()
