"""High-level SlackVM facade — the "two imports and go" API.

Wraps the full pipeline (workload → dedicated-baseline sizing →
shared-cluster sizing → savings report) behind one object, so the
quickstart example is a handful of lines:

>>> from repro import SlackVM
>>> from repro.workload import OVHCLOUD
>>> report = SlackVM().evaluate_mix(OVHCLOUD, "F", seed=42)
>>> report.savings_percent  # doctest: +SKIP
9.6
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments import DistributionOutcome, evaluate_catalog
from repro.core.config import SlackVMConfig
from repro.core.types import VMRequest
from repro.hardware.machine import SIM_WORKER, MachineSpec
from repro.simulator.engine import SimulationResult
from repro.simulator.sizing import SizingResult, minimal_cluster
from repro.simulator.vectorpool import VectorSimulation
from repro.workload.catalog import Catalog
from repro.workload.distributions import LevelMix

__all__ = ["SlackVM"]


class SlackVM:
    """Entry point tying the local/global schedulers and the simulator.

    Parameters
    ----------
    machine:
        The homogeneous worker spec (default: the paper's simulated
        32-core / 128 GB PM).
    config:
        SlackVM knobs (levels, pooling, Algorithm 2's negative factor,
        topology awareness).
    policy:
        Global scheduling policy for the shared cluster (default: the
        Algorithm 2 progress score).
    """

    def __init__(
        self,
        machine: MachineSpec = SIM_WORKER,
        config: SlackVMConfig | None = None,
        policy: str = "progress",
    ):
        self.machine = machine
        self.config = config or SlackVMConfig()
        self.policy = policy

    def place(self, workload: Sequence[VMRequest], num_hosts: int) -> SimulationResult:
        """Run a workload on a fixed-size shared cluster."""
        machines = [
            MachineSpec(f"{self.machine.name}-{i}", self.machine.cpus, self.machine.mem_gb)
            for i in range(num_hosts)
        ]
        sim = VectorSimulation(machines, config=self.config, policy=self.policy)
        return sim.run(list(workload))

    def size_cluster(self, workload: Sequence[VMRequest]) -> SizingResult:
        """Minimal shared cluster hosting ``workload`` without rejection."""
        return minimal_cluster(
            workload, self.machine, policy=self.policy, config=self.config
        )

    def evaluate(
        self, catalog: Catalog, workload: Sequence[VMRequest], **kwargs
    ) -> DistributionOutcome:
        """Compare dedicated clusters vs the SlackVM shared cluster on a
        pre-generated workload trace."""
        return evaluate_catalog(
            catalog,
            mix=(100.0, 0.0, 0.0),  # overridden by the trace's own levels
            machine=self.machine,
            policy=self.policy,
            pooling=self.config.pooling,
            workload=workload,
            **kwargs,
        )

    def evaluate_mix(
        self,
        catalog: Catalog,
        mix: LevelMix | str,
        target_population: int = 500,
        seed: int = 0,
    ) -> DistributionOutcome:
        """Generate a trace for ``mix`` and run the full §VII-B protocol."""
        return evaluate_catalog(
            catalog,
            mix,
            machine=self.machine,
            target_population=target_population,
            seed=seed,
            policy=self.policy,
            pooling=self.config.pooling,
        )
