#!/usr/bin/env python3
"""Online-service demo: a SlackVM fleet under more load than it holds.

Runs the placement service (`repro.serving`) on virtual time over a
two-host fleet at an open-loop arrival rate the fleet cannot hold:
requests that no host fits wait in the shard's capacity-pending FIFO,
departures drain that FIFO, and the service sheds load twice — at its
bounded admission queue and when the pending FIFO is full.

`serve(spec)` is `PlacementService(spec)` run on its own virtual clock;
the demo takes those two steps itself so it can read the shard's audit
log afterwards.

Run: python examples/control_plane.py
"""

from repro.serving import PlacementService, ServiceSpec, run_virtual


def main() -> None:
    spec = ServiceSpec(
        rate=20.0, duration=20.0, mean_lifetime=5.0, seed=2,
        num_hosts=2, queue_bound=4, max_pending=8, timeout_s=3.0,
        service_mean=0.04,
    )
    print(f"Fleet: {spec.num_hosts} PMs x {spec.host_cpus} CPUs / "
          f"{spec.host_mem_gb:g} GB; {spec.rate:g} req/s for "
          f"{spec.duration:g} virtual s, VMs live {spec.mean_lifetime:g} s\n")
    service = PlacementService(spec)
    report = run_virtual(service.run(), service.clock)

    pends = [line for line in report.decision_log if " pend " in line]
    print(f"Capacity-pending placements: {len(pends)} (first three)")
    for line in pends[:3]:
        print(f"  {line}")
    print()

    (shard,) = service.controllers
    queued = {vm_id for action, vm_id, _ in shard.audit_log if action == "queue"}
    drained = [vm_id for action, vm_id, _ in shard.audit_log
               if action == "place" and vm_id in queued]
    print(f"Drain: {len(drained)} of {len(queued)} queued VMs were placed "
          f"once departures freed capacity; {drained[0]}'s audit trail:")
    for action, vm_id, detail in shard.audit_log:
        if vm_id == drained[0]:
            print(f"  {action:<6} {detail}".rstrip())
    print()

    rejects = [line for line in report.decision_log if " reject " in line]
    full = sum("pending-full" in line for line in rejects)
    print(f"Rejected: {len(rejects) - full} at the admission queue "
          f"(bound {spec.queue_bound}), {full} with the pending FIFO full "
          f"(max {spec.max_pending})\n")

    print("Report:")
    for line in report.summary().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
