#!/usr/bin/env python3
"""Control-plane demo: the online service view of a SlackVM cluster.

Drives the `CloudController` API the way an IaaS frontend would:
request VMs at different oversubscription levels, watch the pending
queue absorb a capacity crunch, delete VMs and see queued requests
drain, then inspect the per-host vNode reports and the audit log.

Run: python examples/control_plane.py
"""

import numpy as np

from repro.controlplane import CloudController, VMState
from repro.core import DEFAULT_LEVELS, SlackVMConfig, VMSpec
from repro.hardware import MachineSpec
from repro.workload import AZURE


def main() -> None:
    rng = np.random.default_rng(3)
    controller = CloudController(
        [MachineSpec(f"pm-{i}", 32, 128.0) for i in range(3)],
        config=SlackVMConfig(),
    )
    print("Cluster: 3 PMs x 32 CPUs / 128 GB; levels 1:1, 2:1, 3:1\n")

    print("Phase 1 — tenants request 60 VMs (Azure-like flavors)...")
    tickets = []
    for i in range(60):
        spec = AZURE.sample(rng)
        level = DEFAULT_LEVELS[int(rng.integers(3))]
        ticket = controller.request(spec, level, tenant=f"tenant-{i % 5}")
        tickets.append(ticket)
    state = controller.state()
    print(f"  active: {state.active_vms}, pending: {state.pending_vms}, "
          f"CPU allocated: {state.cpu_allocation_share:.0%}, "
          f"memory allocated: {state.mem_allocation_share:.0%}\n")

    print("Phase 2 — a burst of large premium requests hits the queue...")
    burst = [controller.request(VMSpec(16, 64.0), DEFAULT_LEVELS[0],
                                tenant="big-corp") for _ in range(4)]
    for t in burst:
        print(f"  {t.vm_id}: {t.state.value}" +
              (f" on pm-{t.host}" if t.host is not None else ""))
    print()

    print("Phase 3 — early tenants shut down; the queue drains...")
    active = [t for t in tickets if t.state is VMState.ACTIVE]
    for t in active[:20]:
        controller.delete(t.vm_id)
    for t in burst:
        t = controller.ticket(t.vm_id)
        print(f"  {t.vm_id}: {t.state.value}" +
              (f" on pm-{t.host}" if t.host is not None else ""))
    print()

    print("Per-host reports (one line per non-empty vNode):")
    for i in range(3):
        snap = controller.describe_host(i)
        nodes = ", ".join(
            f"{n['level']}: {n['cpus']} CPUs / {n['vcpus']} vCPUs"
            for n in snap["vnodes"]
        ) or "(idle)"
        print(f"  pm-{i}: {snap['num_vms']} VMs | {nodes}")
    print()

    queued = sum(1 for a, _, _ in controller.audit_log if a == "queue")
    pooled = sum(1 for t in controller.list_vms() if t.pooled)
    print(f"Audit log: {len(controller.audit_log)} events "
          f"({queued} queueings); {pooled} placements used §V-B pooling.")


if __name__ == "__main__":
    main()
