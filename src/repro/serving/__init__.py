"""repro.serving — the online placement service.

Splits the fleet into shards, each placing through the vector engine's
kernel with a capacity-pending FIFO of its own, behind a bounded
admission queue driven by open-loop seeded traffic — one synchronous
loop over a virtual clock's timer heap.  See docs/ARCHITECTURE.md §15.
"""

from repro.serving.clock import VirtualClock, run_virtual
from repro.serving.config import (
    DAY,
    DIST_KINDS,
    DiurnalConfig,
    RVConfig,
    TrafficConfig,
)
from repro.serving.generator import RequestSource, ServiceRequest
from repro.serving.service import (
    SERVICE_SPEC_VERSION,
    PlacementService,
    ServiceReport,
    ServiceSpec,
    serve,
)

__all__ = [
    "DAY",
    "DIST_KINDS",
    "DiurnalConfig",
    "RVConfig",
    "TrafficConfig",
    "VirtualClock",
    "run_virtual",
    "RequestSource",
    "ServiceRequest",
    "SERVICE_SPEC_VERSION",
    "PlacementService",
    "ServiceReport",
    "ServiceSpec",
    "serve",
]
