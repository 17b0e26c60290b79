#!/usr/bin/env python3
"""Quickstart: how many PMs does SlackVM save on a mixed workload?

Generates a one-week OVHcloud-like trace where half the VMs are premium
(1:1) and half are oversubscribed at 3:1 — the paper's distribution F —
then compares:

* the *baseline*: one dedicated First-Fit cluster per oversubscription
  level (how providers operate today);
* *SlackVM*: one shared cluster where every PM co-hosts all levels in
  vNodes and placements maximize the M/C progress score (Algorithm 2).

Run: python examples/quickstart.py
"""

from repro import RunSpec, evaluate


def main() -> None:
    # paper defaults: 32-core/128 GB PMs, levels 1/2/3:1
    outcome = evaluate(RunSpec(provider="ovhcloud", mix="F",
                               target_population=500, seed=42))

    print("SlackVM quickstart — OVHcloud catalog, distribution F (50% 1:1, 50% 3:1)")
    print("-" * 72)
    for ratio, pms in sorted(outcome.baseline_pms_per_level.items()):
        print(f"  dedicated {ratio:>3.0f}:1 cluster : {pms:3d} PMs (First-Fit)")
    print(f"  baseline total        : {outcome.baseline_pms:3d} PMs")
    print(f"  SlackVM shared cluster: {outcome.slackvm_pms:3d} PMs (progress score)")
    print(f"  => {outcome.savings_percent:.1f}% of the fleet saved")
    print()
    b, s = outcome.baseline_unallocated, outcome.slackvm_unallocated
    print("  stranded resources at peak (share of cluster capacity):")
    print(f"    baseline: {b.cpu:6.1%} CPU, {b.mem:6.1%} memory")
    print(f"    slackvm : {s.cpu:6.1%} CPU, {s.mem:6.1%} memory")
    print()
    print(f"  placements upgraded via §V-B pooling: {outcome.pooled_placements}")


if __name__ == "__main__":
    main()
