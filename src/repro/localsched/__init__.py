"""SlackVM local scheduler: vNodes, topology-driven allocation, pinning."""

from repro.localsched.agent import DeployPlan, LocalScheduler, Placement
from repro.localsched.allocator import CoreAllocator
from repro.localsched.pinning import (
    VirtualTopology,
    shared_llc_violations,
    virtual_topology,
)
from repro.localsched.vnode import VNode

__all__ = [
    "LocalScheduler",
    "DeployPlan",
    "Placement",
    "CoreAllocator",
    "VNode",
    "VirtualTopology",
    "virtual_topology",
    "shared_llc_violations",
]
