"""SlackVM reproduction — packing VMs across CPU-oversubscription levels.

Reproduces *SLACKVM: Packing Virtual Machines in Oversubscribed Cloud
Infrastructures* (Jacquet, Ledoux, Rouvoy — IEEE CLUSTER 2024) as a
self-contained Python library:

* :mod:`repro.core` — data model, configuration, typed errors;
* :mod:`repro.hardware` — CPU topologies and the Algorithm 1 core
  distance metric;
* :mod:`repro.localsched` — the per-PM agent partitioning resources
  into dynamically-sized vNodes;
* :mod:`repro.scheduling` — the Algorithm 2 progress score inside a
  standard filter/weigher global scheduler, plus packing baselines;
* :mod:`repro.simulator` — a discrete-event cloud simulator with a
  vectorized fast path and minimal-cluster sizing;
* :mod:`repro.workload` — CloudFactory-style generator with Azure /
  OVHcloud catalogs matching the paper's Tables I & II;
* :mod:`repro.perfmodel` — the physical-testbed substitute (SMT-aware
  contention + latency model) behind Table IV / Fig. 2;
* :mod:`repro.analysis` — ratio tables, the Figure 3 & 4 result record
  and report rendering;
* :mod:`repro.oversub` — the paper's future-work dynamic
  oversubscription: usage-predicted effective host capacities;
* :mod:`repro.api` — the unified :class:`~repro.api.RunSpec` /
  :func:`~repro.api.run` / :func:`~repro.api.evaluate` entry point
  every front end constructs through;
* :mod:`repro.sharding` — the two-level dispatcher fanning one
  datacenter out over N vector-engine shards.
"""

from repro.api import RunSpec, evaluate, run
from repro.core.config import SlackVMConfig
from repro.core.types import (
    DEFAULT_LEVELS,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    ResourceVector,
    VMRequest,
    VMSpec,
)

__version__ = "1.0.0"

__all__ = [
    "RunSpec",
    "run",
    "evaluate",
    "SlackVMConfig",
    "ResourceVector",
    "OversubscriptionLevel",
    "VMSpec",
    "VMRequest",
    "LEVEL_1_1",
    "LEVEL_2_1",
    "LEVEL_3_1",
    "DEFAULT_LEVELS",
    "__version__",
]
