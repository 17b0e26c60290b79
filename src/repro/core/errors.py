"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one base type at API boundaries.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "TopologyError",
    "CapacityError",
    "WorkloadError",
    "SimulationError",
    "RunnerError",
    "ShardingError",
    "ServingError",
]


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class TopologyError(ReproError):
    """A CPU-topology description is inconsistent or an operation on it
    is impossible (e.g. requesting more cores than exist)."""


class CapacityError(ReproError):
    """A resource reservation exceeds the capacity of its container
    (vNode, physical machine, or datacenter)."""


class WorkloadError(ReproError):
    """A workload trace or generator parameterization is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class RunnerError(ReproError):
    """A sweep specification or checkpoint is invalid, or a sweep
    finished with failed cells the caller required to succeed."""


class ShardingError(ReproError):
    """A sharded run failed: a shard worker raised, a merge invariant
    broke, or a shard checkpoint does not match its plan."""


class ServingError(ReproError):
    """The online placement service reached an inconsistent state — a
    virtual-time deadlock (every coroutine blocked with no sleeper to
    wake) or a lifecycle command referencing an unknown request."""
