#!/usr/bin/env python3
"""Bring your own provider: calibrate a catalog and evaluate SlackVM.

Shows the workflow a provider follows to apply this library to their
own fleet statistics:

1. fit a VM-flavor catalog to the fleet's published/measured means
   (mean vCPUs, mean vRAM, oversubscribable-subset memory ratio) with
   the same minimum-KL solver that produced the paper catalogs;
2. classify which resource each oversubscription level exhausts on the
   fleet's hardware;
3. register the catalog under its name and run the dedicated-vs-SlackVM
   comparison on a generated workload through ``evaluate(RunSpec(...))``
   (catalogs are addressed by registry name everywhere — it is what a
   sweep's worker processes resolve).

Run: python examples/custom_provider.py
"""

from repro import RunSpec, evaluate
from repro.analysis import classify_levels
from repro.core import VMSpec
from repro.hardware import MachineSpec
from repro.workload import PROVIDERS, CalibrationTarget, calibrate_catalog

# A fictional European provider: slightly beefier VMs than Azure,
# leaner than OVHcloud.
FLAVORS = [
    VMSpec(1, 1.0), VMSpec(1, 2.0), VMSpec(1, 4.0),
    VMSpec(2, 2.0), VMSpec(2, 4.0), VMSpec(2, 8.0),
    VMSpec(4, 4.0), VMSpec(4, 8.0), VMSpec(4, 16.0),
    VMSpec(8, 16.0), VMSpec(8, 32.0), VMSpec(16, 64.0),
]
TARGET = CalibrationTarget(
    mean_vcpus=2.8,
    mean_mem_gb=7.0,
    restricted_mem_per_vcpu=1.7,  # GB per vCPU among <=8 GB flavors
)
MACHINE = MachineSpec("fleet-pm", 48, 192.0)  # target ratio 4 GB/core


def main() -> None:
    print("Calibrating a catalog to the fleet statistics "
          f"(mean {TARGET.mean_vcpus} vCPU / {TARGET.mean_mem_gb} GB, "
          f"restricted ratio {TARGET.restricted_mem_per_vcpu} GB/vCPU)...")
    catalog = calibrate_catalog("example-cloud", FLAVORS, TARGET)
    print(f"  fitted {len(catalog.entries)} flavors; "
          f"verification: mean vCPU {catalog.mean_vcpus:.2f}, "
          f"mean vRAM {catalog.mean_mem_gb:.2f} GB")
    print(f"  M/C by level: "
          + ", ".join(f"{int(r)}:1 -> {catalog.mc_ratio(r):.1f}"
                      for r in (1.0, 2.0, 3.0)))
    print()

    print(f"Limiting factor on {MACHINE.name} "
          f"({MACHINE.cpus} cores / {MACHINE.mem_gb:.0f} GB, "
          f"target ratio {MACHINE.target_ratio:g}):")
    for ratio, factor in classify_levels(catalog, MACHINE.target_ratio).items():
        print(f"  {int(ratio)}:1 -> {factor.value}")
    print()

    print("Dedicated clusters vs SlackVM (mix F, 300 target VMs):")
    PROVIDERS[catalog.name] = catalog
    outcome = evaluate(RunSpec(
        provider=catalog.name, mix="F", target_population=300, seed=42,
        host_cpus=MACHINE.cpus, host_mem_gb=MACHINE.mem_gb,
    ))
    for ratio, pms in sorted(outcome.baseline_pms_per_level.items()):
        print(f"  dedicated {ratio:g}:1 : {pms} PMs")
    print(f"  baseline total   : {outcome.baseline_pms} PMs")
    print(f"  SlackVM shared   : {outcome.slackvm_pms} PMs")
    print(f"  savings          : {outcome.savings_percent:.1f}%")


if __name__ == "__main__":
    main()
