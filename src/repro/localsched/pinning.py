"""Virtual-topology export and LLC-sharing isolation (paper §V-A).

Every VM in a vNode is pinned to the vNode's *whole* CPU set — on
deployment the pinning of all hosted VMs is extended to the new range,
and the Linux scheduler picks the concrete core inside that range.

:func:`virtual_topology` summarizes how a vNode's CPU set looks from the
inside (sockets, LLC groups, SMT pairs): SlackVM aims for vNodes that
"resemble a CPU model with fewer cores", and the isolation benches
assert on these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import TopologyError
from repro.hardware.topology import Topology
from repro.localsched.agent import LocalScheduler
from repro.localsched.vnode import VNode

__all__ = ["VirtualTopology", "virtual_topology", "shared_llc_violations"]


@dataclass(frozen=True, slots=True)
class VirtualTopology:
    """What a vNode's CPU set looks like as a standalone machine."""

    num_cpus: int
    num_physical_cores: int
    num_sockets: int
    num_llc_groups: int
    smt_pairs: int  # physical cores contributing both their threads


def virtual_topology(node: VNode, topology: Topology) -> VirtualTopology:
    """Summarize ``node``'s CPU set against the PM topology."""
    cpus = node.cpu_ids
    if not cpus:
        return VirtualTopology(0, 0, 0, 0, 0)
    infos = [topology.cpu(c) for c in cpus]
    phys: dict[int, int] = {}
    for info in infos:
        phys[info.physical_core] = phys.get(info.physical_core, 0) + 1
    llc = {info.cache_ids[-1] for info in infos}
    return VirtualTopology(
        num_cpus=len(cpus),
        num_physical_cores=len(phys),
        num_sockets=len({i.socket for i in infos}),
        num_llc_groups=len(llc),
        smt_pairs=sum(1 for n in phys.values() if n > 1),
    )


def shared_llc_violations(agent: LocalScheduler) -> int:
    """Count LLC groups shared between *different* vNodes.

    SlackVM's isolation objective is to avoid sharing low cache levels
    between vNodes; this metric quantifies residual sharing and feeds
    the topology ablation bench.
    """
    if agent.topology is None:
        raise TopologyError("shared_llc_violations requires a topology-mode agent")
    topo = agent.topology
    owners: dict[int, set[str]] = {}
    for node in agent.vnodes:
        for c in node.cpu_ids:
            owners.setdefault(topo.cpu(c).cache_ids[-1], set()).add(node.node_id)
    return sum(1 for who in owners.values() if len(who) > 1)
