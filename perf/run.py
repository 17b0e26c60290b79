#!/usr/bin/env python3
"""The perf ledger's one command.

Ledger mode (people)::

    python perf/run.py [--seed 7] [--rounds 5] [--workloads a,b] [--trace]
                       [--smoke] [--seconds 20] [-o out.json]

runs every workload ``--rounds`` times, rounds interleaved round-robin
across workloads, each (workload, round) in fresh subprocesses, then —
with ``--trace`` — one traced round; prints every metric by name with
its unit as median [q1, q3] n, checks outputs, and writes the ledger.

Driver mode (the benchmark contract)::

    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

is one (workload, round): the same sample, printed as the contract's
one JSON object on the last line of stdout.

Both serving workloads are open-loop at a stated rate on *virtual*
time: the generator is never late by construction (lateness 0), and
wall-clock numbers price the program's compute, not its waiting.

This file imports nothing from ``repro``; ``worker.py`` does, in the
subprocesses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import names  # noqa: E402 — after the sys.path line above

#: Set-up samples per (workload, round): the measuring worker's own
#: plus this many set-up-only workers, so ``setup_s`` is a median.
SETUP_PROBES = 4
#: Length of one measurement.  Bursts of interference from the machine's
#: other tenants last 5-10 s here; a window this long holds quiet calls.
DEFAULT_SECONDS = 20
SMOKE_SCALE = 0.25
WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, seconds: float, scale: float,
            trace_out: Optional[str] = None) -> dict:
    """One fresh subprocess; returns the JSON object it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--scale", str(scale), "--t0", repr(time.monotonic())]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload}: worker ({mode}) ran past "
                           f"{WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload}: worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample(workload: str, seed: int, seconds: float, scale: float,
           setup_probes: int = SETUP_PROBES) -> dict:
    """One untraced (workload, round): every end-to-end metric, the
    digest, the refusal counts and whether the outputs checked out."""
    setups = [_worker(workload, seed, "setup", 0, scale)["setup_s"]
              for _ in range(setup_probes)]
    run = _worker(workload, seed, "measure", seconds, scale)
    setups.append(run["setup_s"])
    calls = run["calls"]
    digests = {c["digest"] for c in calls}
    refused = {(c["refused"], c["arrivals"]) for c in calls}
    problems = [p for c in calls for p in c["problems"]]
    if len(digests) > 1:
        problems.append(f"{len(digests)} different digests in one run")
    if len(refused) > 1:
        problems.append("refusal count differs between calls of one run")
    out = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "failed_ops_ratio": calls[0]["refused"] / calls[0]["arrivals"],
        "calls": len(calls),
        "digest": calls[0]["digest"],
        "arrivals": calls[0]["arrivals"],
        "events": calls[0]["events"],
        "problems": problems,
        "setup_samples": setups,
        "call_walls": [c["wall_s"] for c in calls],
    }
    out.update({k: run[k] for k in ("wall_s", "cpu_s", "events_per_s",
                                    "decision_p50_us", "decision_p90_us") if k in run})
    if "decision_n" in calls[0]:
        out["decision_n"] = calls[0]["decision_n"]
    return out


def traced(workload: str, seed: int, seconds: float, scale: float,
           trace_out: Optional[str]) -> dict:
    """One traced (workload, round): every per-layer metric."""
    run = _worker(workload, seed, "trace", seconds, scale, trace_out)
    problems = [p for c in run["fronts"] for p in c["problems"]]
    if not run["trace"]["digest_match"]:
        problems.append("outside-driven digest differs from the front door's")
    return {
        "metrics": run["trace"]["metrics"],
        "digest": run["trace"]["digest"],
        "digest_match": run["trace"]["digest_match"],
        "arrivals": run["fronts"][0]["arrivals"],
        "pairs": len(run["fronts"]),
        "problems": problems,
    }


# -- driver mode ---------------------------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    if args.workload not in names.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.trace:
        one = traced(args.workload, args.seed, args.seconds, scale, None)
        values, units = one["metrics"], names.PER_LAYER_UNITS
    else:
        one = sample(args.workload, args.seed, args.seconds, scale)
        values = {k: one[k] for k in names.DRIVER_END_TO_END}
        units = names.END_TO_END_UNITS
        print(f"# {args.workload} seed={args.seed}: {one['calls']} call(s), "
              f"digest {one['digest'][:16]}, failed_ops_ratio "
              f"{one['failed_ops_ratio']:.6f} of {one['arrivals']}")
        print("# call walls " + " ".join(f"{w:.4f}" for w in one["call_walls"])
              + "  set-ups " + " ".join(f"{s:.4f}" for s in one["setup_samples"]))
    for name, value in values.items():
        print(f"# {name:32s} {value:16.6f} {units[name]}")
    for problem in one["problems"]:
        print(f"# CHECK FAILED: {problem}")
    # ``failed`` counts operations whose outcome failed an output check.
    # Refusals by admission control are a workload's specified outcome
    # (exact per seed, part of the digest): ``failed_ops_ratio`` above.
    print(json.dumps({
        "correct": not one["problems"],
        "attempted": one["arrivals"],
        "failed": len(one["problems"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


# -- ledger mode ---------------------------------------------------------------


def summarise(values: list) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(args: argparse.Namespace, scale: float) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        stdout=subprocess.PIPE, text=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or "unknown",
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": args.seconds,
        "scale": scale,
    }


def ledger_main(args: argparse.Namespace) -> int:
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.rounds, args.seconds, args.trace = 1, 0, 1
    selected = args.workloads.split(",") if args.workloads else list(names.WORKLOADS)
    unknown = [w for w in selected if w not in names.WORKLOADS]
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    ledger: dict = {"schema": 1, "env": environment(args, scale), "workloads": {}}
    rounds: dict = {w: [] for w in selected}
    failed = False
    for r in range(args.rounds):
        for w in selected:  # interleaved: a noisy minute hits every workload once
            one = sample(w, args.seed, args.seconds, scale,
                         setup_probes=0 if args.smoke else SETUP_PROBES)
            one["loadavg_1m"] = os.getloadavg()[0]
            rounds[w].append(one)
            print(f"round {r + 1}/{args.rounds} {w:20s} wall_s {one['wall_s']:.3f} "
                  f"({one['calls']} call(s))", file=sys.stderr)
    for w in selected:
        entry: dict = {"why": names.WORKLOADS[w], "rounds": rounds[w], "metrics": {}}
        digests = {one["digest"] for one in rounds[w]}
        problems = [p for one in rounds[w] for p in one["problems"]]
        if len(digests) > 1:
            problems.append(f"{len(digests)} different digests across rounds")
        entry.update(digest=rounds[w][0]["digest"], arrivals=rounds[w][0]["arrivals"],
                     events=rounds[w][0]["events"], problems=problems)
        for metric in names.END_TO_END:
            if not names.applies(metric.name, w):
                continue
            entry["metrics"][metric.name] = {
                **summarise([one[metric.name] for one in rounds[w]]),
                "unit": metric.unit,
                "better": metric.better,
                "bound": names.bound_for(metric.name, w),
            }
        if args.trace:
            # A smoke run must not overwrite the committed full-size dumps.
            trace_dir = args.trace_dir or (None if args.smoke else HERE / "results")
            trace_out = None
            if trace_dir:
                os.makedirs(trace_dir, exist_ok=True)
                trace_out = os.path.join(trace_dir, f"trace-{w}.json")
            entry["trace"] = traced(w, args.seed, args.seconds, scale, trace_out)
            problems.extend(entry["trace"]["problems"])
        ledger["workloads"][w] = entry
        failed = failed or bool(problems)
    print_ledger(ledger)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def print_ledger(ledger: dict) -> None:
    env = ledger["env"]
    print(f"perf ledger  seed={env['seed']} rounds={env['rounds']} "
          f"seconds={env['seconds']} scale={env['scale']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} load={env['loadavg_1m_start']:.2f}")
    print("serving workloads: open loop on virtual time, generator lateness 0 "
          "by construction")
    for w, entry in ledger["workloads"].items():
        print(f"\n{w}  digest {entry['digest'][:16]}  arrivals {entry['arrivals']}  "
              f"events {entry['events']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:30s} {m['median']:14.4f} [{m['q1']:.4f}, {m['q3']:.4f}] "
                  f"{m['unit']:6s} n={m['n']}")
        if "decision_n" in entry["rounds"][0]:
            print(f"  (decision percentiles over n={entry['rounds'][0]['decision_n']} "
                  f"decisions per call)")
        if "trace" in entry:
            print(f"  -- traced round (digest match: {entry['trace']['digest_match']})")
            for name, value in entry["trace"]["metrics"].items():
                if value:
                    print(f"  {name:30s} {value:14.4f} {names.PER_LAYER_UNITS[name]}")
        for problem in entry["problems"]:
            print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="driver mode: the one workload to sample")
    ap.add_argument("--workloads", help="ledger mode: comma-separated subset")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="repeat the front-door call for this long (at least once)")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="ledger mode: add the traced round; driver mode: 0|1")
    ap.add_argument("--trace-dir",
                    help="where the traced round dumps trace-<workload>.json "
                         "(default perf/results; nowhere with --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at ~1/10 size, one round + one traced round")
    ap.add_argument("-o", "--output", help="write the ledger JSON here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found — run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print("error: --rounds must be >= 1", file=sys.stderr)
        return 2
    try:
        return driver_main(args) if args.workload else ledger_main(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
