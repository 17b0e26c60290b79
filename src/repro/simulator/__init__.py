"""Discrete-event cloud simulator: events, engines, metrics, sizing."""

from repro.simulator.engine import (
    PlacementRecord,
    Simulation,
    SimulationResult,
    Timeline,
    build_hosts,
)
from repro.simulator.conformance import result_stream
from repro.simulator.events import (
    Event,
    EventKind,
    EventQueue,
    iter_event_batches,
    workload_events,
)
from repro.simulator.faults import FaultReport, FaultySimulation, HostFailure
from repro.simulator.metrics import (
    UnallocatedShares,
    combine_unallocated,
    pm_savings_percent,
    unallocated_at_peak,
)
from repro.simulator.refkernel import naive_feasibility, naive_scores
from repro.simulator.sizing import SizingResult, demand_lower_bound, minimal_cluster
from repro.simulator.vectorpool import (
    KERNELS,
    POLICIES,
    VectorCluster,
    VectorSimulation,
)

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "workload_events",
    "iter_event_batches",
    "result_stream",
    "HostFailure",
    "FaultySimulation",
    "FaultReport",
    "Simulation",
    "SimulationResult",
    "PlacementRecord",
    "Timeline",
    "build_hosts",
    "VectorCluster",
    "VectorSimulation",
    "POLICIES",
    "KERNELS",
    "naive_feasibility",
    "naive_scores",
    "UnallocatedShares",
    "unallocated_at_peak",
    "combine_unallocated",
    "pm_savings_percent",
    "SizingResult",
    "demand_lower_bound",
    "minimal_cluster",
]
