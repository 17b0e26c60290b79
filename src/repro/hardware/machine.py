"""Physical-machine specifications.

A :class:`MachineSpec` couples schedulable CPU capacity (logical CPUs,
i.e. hardware threads — the unit both the paper's testbed M/C ratio and
its simulation use) with memory capacity, and optionally carries a full
:class:`~repro.hardware.topology.Topology` for topology-aware pinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds
from repro.core.types import ResourceVector
from repro.hardware.topology import Topology, build_topology, epyc_7662_dual

__all__ = ["MachineSpec", "EPYC_7662_DUAL", "SIM_WORKER"]


@dataclass(frozen=True)
class MachineSpec:
    """Hardware configuration of one PM.

    ``cpus`` counts *schedulable* CPUs: the paper's testbed reports
    256 threads and 1 TB, giving the M/C "target ratio" of
    1000/256 ≈ 4 GB per CPU; its simulated workers expose 32 cores and
    128 GB (also 4 GB per core).
    """

    name: str
    cpus: int = bound(1)
    mem_gb: float = bound(0, open_low=True)
    topology_factory: Optional[Callable[[], Topology]] = None

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def capacity(self) -> ResourceVector:
        return ResourceVector(float(self.cpus), float(self.mem_gb))

    @property
    def target_ratio(self) -> float:
        """Hardware M/C ratio (GB per schedulable CPU) — §III-B."""
        return self.mem_gb / self.cpus

    def build_topology(self) -> Topology:
        """Materialize this machine's CPU topology.

        Falls back to a generic single-socket topology matching the CPU
        count when no explicit factory is configured.
        """
        if self.topology_factory is not None:
            topo = self.topology_factory()
        else:
            topo = build_topology(sockets=1, cores_per_socket=self.cpus, llc_group=8)
        if topo.num_cpus != self.cpus:
            raise ConfigError(
                f"topology exposes {topo.num_cpus} CPUs but spec says {self.cpus}"
            )
        return topo


#: The paper's physical testbed (Table III): 2× EPYC 7662, 256 threads, 1 TB.
EPYC_7662_DUAL = MachineSpec(
    name="2xEPYC-7662",
    cpus=256,
    mem_gb=1000.0,
    topology_factory=epyc_7662_dual,
)

#: The paper's simulated worker (§VII-B1): 32 cores, 128 GB (M/C = 4).
SIM_WORKER = MachineSpec(name="sim-worker", cpus=32, mem_gb=128.0)
