#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py -o``.

    python perf/compare.py A.json B.json

A is the parent (or the first of two runs of one commit), B the change.
One row per workload x end-to-end metric: both medians with their
quartiles, the relative change in the *worse* direction, the bound and
a verdict:

``better`` / ``worse``  the median moved past the bound
``same``                it did not
``unresolved``          either side's inter-quartile spread is wider
                        than the bound, so a move of that size cannot
                        be told from noise — unless every run of B
                        reads better than every run of A (``better``)

``failed_ops_ratio`` has bound 0: it must repeat exactly.  ``setup_s``
must also move by more than 0.1 s to count.  Per workload the report
adds ``digest_changed`` and the failed-operation share.  Exit status 1
if any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import names  # noqa: E402 — after the sys.path line above


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from a to b, positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    if a == 0:
        return 0.0 if b == 0 else sign * math.copysign(math.inf, b)
    return sign * (b - a) / abs(a)


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(name: str, a: dict, b: dict, samples_a: list, samples_b: list) -> tuple[str, float]:
    """(verdict, worsening) for one workload x metric."""
    better, bound = a["better"], a["bound"]
    w = worsening(a["median"], b["median"], better)
    if bound == 0:  # exact metric
        return ("same" if w == 0 else "worse" if w > 0 else "better"), w
    if max(spread(a), spread(b)) > bound:
        if samples_a and samples_b:
            if better == "lower" and max(samples_b) < min(samples_a):
                return "better", w
            if better == "higher" and min(samples_b) > max(samples_a):
                return "better", w
        return "unresolved", w
    if name == "setup_s" and abs(b["median"] - a["median"]) <= names.SETUP_ABS_S:
        return "same", w
    if w > bound:
        return "worse", w
    if w < -bound:
        return "better", w
    return "same", w


def compare(a: dict, b: dict) -> tuple[list, list]:
    """(metric rows, workload rows) for the workloads both ledgers have."""
    rows, per_workload = [], []
    for w, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(w)
        if entry_b is None:
            continue
        for name, ma in entry_a["metrics"].items():
            mb = entry_b["metrics"].get(name)
            if mb is None:
                continue
            samples_a = [r[name] for r in entry_a.get("rounds", []) if name in r]
            samples_b = [r[name] for r in entry_b.get("rounds", []) if name in r]
            v, change = verdict(name, ma, mb, samples_a, samples_b)
            rows.append({"workload": w, "metric": name, "a": ma, "b": mb,
                         "worsening": change, "verdict": v})
        per_workload.append({
            "workload": w,
            "digest_changed": entry_a["digest"] != entry_b["digest"],
            "failed_a": entry_a["metrics"]["failed_ops_ratio"]["median"],
            "failed_b": entry_b["metrics"]["failed_ops_ratio"]["median"],
        })
    return rows, per_workload


def _cell(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    a, b = ledgers
    rows, per_workload = compare(a, b)
    for side, ledger in zip("AB", ledgers):
        env = ledger["env"]
        print(f"{side}: git {env['git_sha'][:12]} seed {env['seed']} rounds "
              f"{env['rounds']} nproc {env['nproc']} load {env['loadavg_1m_start']:.2f}")
    print(f"\n{'workload':20s} {'metric':18s} {'unit':6s} {'A median [q1, q3]':30s} "
          f"{'B median [q1, q3]':30s} {'worse by':>9s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:20s} {r['metric']:18s} {r['a']['unit']:6s} "
              f"{_cell(r['a']):30s} {_cell(r['b']):30s} {r['worsening']:+9.1%} "
              f"{r['a']['bound']:6.2f}  {r['verdict']}")
    print(f"\n{'workload':20s} {'digest_changed':15s} failed-operation share A -> B")
    for r in per_workload:
        print(f"{r['workload']:20s} {str(r['digest_changed']):15s} "
              f"{r['failed_a']:.6f} -> {r['failed_b']:.6f}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("better", "same", "worse", "unresolved")}
    print("\n" + "  ".join(f"{v}: {n}" for v, n in counts.items()))
    for r in rows:
        if r["verdict"] == "unresolved":
            print(f"unresolved: {r['workload']} {r['metric']} spread "
                  f"A {spread(r['a']):.1%} B {spread(r['b']):.1%} > bound {r['a']['bound']:.0%}")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
