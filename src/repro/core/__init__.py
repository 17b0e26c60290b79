"""Core data model: resource vectors, levels, VM specs, configuration."""

from repro.core.config import SlackVMConfig
from repro.core.errors import (
    CapacityError,
    ConfigError,
    ReproError,
    ServingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
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

__all__ = [
    "SlackVMConfig",
    "ReproError",
    "ConfigError",
    "TopologyError",
    "CapacityError",
    "WorkloadError",
    "SimulationError",
    "ServingError",
    "ResourceVector",
    "OversubscriptionLevel",
    "LEVEL_1_1",
    "LEVEL_2_1",
    "LEVEL_3_1",
    "DEFAULT_LEVELS",
    "VMSpec",
    "VMRequest",
]
