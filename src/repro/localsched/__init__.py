"""SlackVM local scheduler: vNodes, topology-driven allocation, pinning."""

from repro.localsched.agent import DeployPlan, LocalScheduler, Placement
from repro.localsched.allocator import CoreAllocator
from repro.localsched.drivers import (
    DriverOp,
    HypervisorDriver,
    NullDriver,
    RecordingDriver,
)
from repro.localsched.pinning import (
    VirtualTopology,
    shared_llc_violations,
    virtual_topology,
)
from repro.localsched.vnode import HostedVM, VNode

__all__ = [
    "LocalScheduler",
    "DeployPlan",
    "Placement",
    "CoreAllocator",
    "HypervisorDriver",
    "NullDriver",
    "RecordingDriver",
    "DriverOp",
    "VNode",
    "HostedVM",
    "VirtualTopology",
    "virtual_topology",
    "shared_llc_violations",
]
