"""Hardware substrate: CPU topologies, cache distances, machine specs."""

from repro.hardware.machine import EPYC_7662_DUAL, SIM_WORKER, MachineSpec
from repro.hardware.topology import (
    CpuInfo,
    Topology,
    build_topology,
    epyc_7662_dual,
    small_smp,
)

__all__ = [
    "MachineSpec",
    "EPYC_7662_DUAL",
    "SIM_WORKER",
    "CpuInfo",
    "Topology",
    "build_topology",
    "epyc_7662_dual",
    "small_smp",
]
