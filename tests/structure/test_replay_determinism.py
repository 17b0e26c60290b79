"""Replay determinism: every front door, run twice under differently
skewed fake clocks, writes byte-identical replayable artifacts.

A run is a function of its seeds and virtual time, never of the wall
clock.  Each side of the replay is one subprocess whose
``sitecustomize`` replaces the ``time`` clocks with a counter *before*
``repro`` is imported, so ``from time import perf_counter`` binds the
fake, in pool workers too.  The side then drives every door in-process
(this file is also the side's script).  The two counters step at
different rates from different origins, so any wall-clock value that
reaches an artifact differs between the sides; the only values allowed
to differ are the telemetry keys in :data:`WALL_CLOCK_KEYS`, and each of
them must differ, which proves the fake clock took effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

#: ``(origin, step)`` of each side's fake clock.
CLOCKS = ((100.0, 0.001), (5000.0, 0.0137))

#: Artifact file -> the dotted keys in it that carry wall-clock telemetry.
#: Replay reads none of them; they are dropped before the comparison.
WALL_CLOCK_KEYS = {
    # The wall time of each shard request call (the virtual
    # queue wait is the `wait_*` keys, which must replay).
    "serve.json": tuple(
        f"latency.placement_{stat}_s" for stat in ("p50", "p99", "mean", "max")
    ),
    # How long each engine took to replay the workload, and the engines'
    # select() timer: the audit prices the two paths beside its diff.
    "audit.json": tuple(
        f"{engine}.{key}"
        for engine in ("object", "vector")
        for key in ("wall_s", "metrics.select_s.total_s", "metrics.select_s.mean_s")
    ),
}

#: Doors whose stdout is an artifact; shard, serve and audit print walls.
STDOUT_ARTIFACTS = ("evaluate", "sweep", "oversub")

SITECUSTOMIZE = """\
import time

def _install(origin, step):
    now = [origin]

    def tick():
        now[0] += step
        return now[0]

    def tick_ns():
        return int(tick() * 1e9)

    for name in ("perf_counter", "monotonic", "time", "process_time"):
        setattr(time, name, tick)
        setattr(time, name + "_ns", tick_ns)

_install({origin!r}, {step!r})
"""


def _side(out: Path) -> None:
    """Drive every front door once, writing its artifacts under ``out``."""
    from repro.api import RunSpec, run
    from repro.cli import main
    from repro.obs import JsonlRecorder
    from repro.simulator import result_stream

    doors = {
        "evaluate": ["evaluate", "--population", "120", "--seed", "3"],
        "sweep": ["sweep", "--population", "60", "--mixes", "F,K", "--workers", "2",
                  "--out", str(out / "sweep.jsonl")],
        "shard": ["shard", "--population", "120", "--shards", "2", "--workers", "2",
                  "--checkpoint", str(out / "shard.jsonl")],
        "serve": ["serve", "--duration", "5", "--rate", "30",
                  "--report", str(out / "serve.json")],
        "oversub": ["oversub", "--population", "60", "-o", str(out / "oversub.json")],
        "audit": ["audit", "--vms", "120", "-o", str(out / "audit.json")],
    }
    for door, argv in doors.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc == 0, f"repro {door} exited {rc}"
        if door in STDOUT_ARTIFACTS:
            (out / f"{door}.stdout").write_text(stdout.getvalue(), encoding="utf-8")

    spec = RunSpec(target_population=120, seed=4)
    recorder = JsonlRecorder(out / "run.decisions.jsonl")
    result = run(spec, recorder=recorder)
    recorder.close()
    (out / "run.stream").write_text(result_stream(result), encoding="utf-8")
    (out / "run.fingerprint").write_text(spec.fingerprint(), encoding="utf-8")


def _pop(doc: dict, dotted: str) -> object:
    *parents, leaf = dotted.split(".")
    for key in parents:
        doc = doc[key]
    return doc.pop(leaf)


def _replayable(path: Path) -> tuple[str, dict[str, object]]:
    """``(canonical text, {wall-clock key: value})`` of one artifact."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        # Pool workers append in completion order.
        return "\n".join(sorted(text.splitlines())), {}
    if path.suffix == ".json":
        doc = json.loads(text)
        walls = {key: _pop(doc, key) for key in WALL_CLOCK_KEYS.get(path.name, ())}
        return json.dumps(doc, sort_keys=True), walls
    return text, {}


def test_front_doors_replay_byte_identically_under_skewed_clocks(tmp_path):
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    sides = []
    for name, (origin, step) in zip("AB", CLOCKS):
        site = tmp_path / name / "site"
        out = tmp_path / name / "out"
        site.mkdir(parents=True)
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(origin=origin, step=step), encoding="utf-8"
        )
        path = os.pathsep.join(filter(None, [str(site), src, os.environ.get("PYTHONPATH")]))
        # Distinct fixed hash seeds: set order cannot reach an artifact
        # either, and the outcome does not depend on a random seed.
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(len(sides))}
        proc = subprocess.Popen(
            [sys.executable, __file__, str(out)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sides.append((proc, out))
    try:
        for proc, _out in sides:
            log = proc.communicate(timeout=120)[0]
            assert proc.returncode == 0, log
    finally:
        for proc, _out in sides:
            proc.kill()  # a no-op once the side has exited

    (_, a), (_, b) = sides
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert set(WALL_CLOCK_KEYS) <= set(names)
    for name in names:
        text_a, walls_a = _replayable(a / name)
        text_b, walls_b = _replayable(b / name)
        assert text_a == text_b, f"{name} differs between the two clocks"
        for key in walls_a:
            assert walls_a[key] != walls_b[key], f"{name}: {key} did not see the clock"


if __name__ == "__main__":
    _side(Path(sys.argv[1]))
