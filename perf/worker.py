"""One fresh process = one sample.  Launched by ``run.py``, never by hand.

``--mode setup``    import, build the spec, warm up; report ``setup_s``.
``--mode measure``  the same, then repeat the front-door call until
                    ``--seconds`` have passed since the first one began
                    (at least once; at least ``MIN_PASSES`` times when
                    ``--seconds`` > 0); report the best call, metric by
                    metric.
``--mode trace``    the same, then alternate an untraced front-door call
                    with an outside-driven traced run of the same spec
                    for ``--seconds``; report the quietest traced run
                    (``layers/`` is imported only here).

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


#: When timing at all (``--seconds`` > 0), never fewer passes than this:
#: the best of two says little.  Only ``evaluate_grid``, whose pass is
#: 48 calls and 5-6 s, gets near it.
MIN_PASSES = 3
MIN_PAIRS = 2  # trace mode: untraced + traced


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # Linux reports KiB


def _timed_call(workload, specs) -> dict:
    """The workload's front-door calls, one per spec and each timed on
    its own, then (untimed) the digest and checks."""
    walls, cpus, results = [], [], []
    for spec in specs:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        results.append(workload.call(spec))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
    out = workload.outcome(specs, results)
    call = {
        "wall_s": sum(walls),
        "spec_walls": walls,
        "spec_cpus": cpus,
        "digest": out.digest,
        "arrivals": out.arrivals,
        "refused": out.refused,
        "events": out.events,
        "problems": out.problems,
    }
    call.update(out.decisions)
    return call


def _best(calls: list) -> dict:
    """Best of the calls, spec by spec and metric by metric.  Interference
    from the machine's other tenants only ever slows a call down, so the
    best call is the one that says most about the program."""
    wall = sum(min(walls) for walls in zip(*(c["spec_walls"] for c in calls)))
    best = {
        "wall_s": wall,
        "cpu_s": sum(min(cpus) for cpus in zip(*(c["spec_cpus"] for c in calls))),
        "events_per_s": calls[0]["events"] / wall,
    }
    for key in ("decision_p50_us", "decision_p90_us", "decision_p99_us"):
        if key in calls[0]:
            best[key] = min(c[key] for c in calls)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it spawned us")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    from workloads import WARMUP_SCALE, WORKLOADS, max_workers

    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed, args.scale)
    nproc = os.cpu_count() or 1
    if max_workers(specs) > nproc:
        print(f"error: {args.workload} wants {max_workers(specs)} processes, "
              f"this machine has {nproc}", file=sys.stderr)
        return 2
    warm_specs = workload.specs(args.seed, WARMUP_SCALE * args.scale)
    for spec in warm_specs:
        workload.call(spec)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": time.monotonic() - args.t0,
    }

    if args.mode == "measure":
        # --seconds is the length of the whole measurement, digests and
        # checks between the calls included, so a run ends when it says.
        deadline = time.monotonic() + args.seconds
        calls = [_timed_call(workload, specs)]
        # Read before the repeats: the high-water mark must not depend
        # on how many calls fitted into --seconds.
        out["peak_rss_mb"] = _peak_rss_mb()
        while time.monotonic() < deadline or 0 < args.seconds and len(calls) < MIN_PASSES:
            calls.append(_timed_call(workload, specs))
        out["calls"] = calls
        out.update(_best(calls))
    elif args.mode == "trace":
        from layers import trace_workload

        # Untraced and traced runs alternate, so a noisy stretch hits
        # both sides of trace.overhead_ratio.
        fronts, best, all_match = [], None, True
        deadline = time.monotonic() + args.seconds
        while (not fronts or time.monotonic() < deadline
               or 0 < args.seconds and len(fronts) < MIN_PAIRS):
            fronts.append(_timed_call(workload, specs))
            one = trace_workload(args.workload, workload.door, specs, args.seed)
            all_match = all_match and one.digest == fronts[-1]["digest"]
            if best is None or one.wall_s < best.wall_s:
                best = one  # the others (results, payloads) are dropped here
        out["fronts"] = fronts
        # A traced run is timed whole, so trace.overhead_ratio is taken
        # against the best whole untraced pass, not the spec-by-spec best.
        out["front"] = {**fronts[0], **_best(fronts),
                        "wall_s": min(c["wall_s"] for c in fronts)}
        out["trace"] = best.finish(out["front"], args.trace_out)
        out["trace"]["digest_match"] = all_match

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
