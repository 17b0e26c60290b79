"""Usage-driven effective-capacity estimators (ROADMAP item 1).

SlackVM fixes each level's oversubscription ratio statically and defers
dynamic levels to future work (paper §VIII).  This module supplies the
missing layer: a :class:`CapacityEstimator` maps the hosts' *observed*
usage windows (:class:`HostWindows`, one row per host) to the effective
CPU capacities the scheduler should pack against.  Every rule is
written once, over arrays; one host is a one-row batch.  Strategies:

* :class:`StaticRatio` — the paper's baseline: the physical core count
  (a host-level ratio of 1 reproduces today's behaviour exactly; the
  per-level oversubscription already lives in the vNodes).
* :class:`PercentileEstimator` — Resource Central-style: scale the
  current reservation so the predicted usage peak lands at a headroom
  target below the physical capacity.
* :class:`DoaEstimator` — ScroogeVM's decrease-on-alert: a per-host
  ratio that backs off sharply on an alert and creeps up only after
  the host's peak has been stable for several windows.
* :class:`GreedyEstimator` — step the ratio up while the host is
  quiescent, multiplicative back-off toward 1 on a threshold breach.

Every estimate is clamped row-wise into ``[used, ratio_cap × physical]``:
never below what the VMs demonstrably used (capacity that is already
consumed cannot be reclaimed by prediction), never above the strategy's
oversubscription ceiling.  The property suite pins this contract.

Every tunable is a class constant: the evaluation grid builds each
strategy through :data:`STRATEGIES` with no argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds

__all__ = [
    "PercentilePredictor",
    "HostWindows",
    "CapacityEstimator",
    "StaticRatio",
    "PercentileEstimator",
    "DoaEstimator",
    "GreedyEstimator",
    "STRATEGIES",
    "make_estimator",
]


@dataclass(frozen=True)
class PercentilePredictor:
    """Predict peak usage as a high percentile of observed samples
    (Resource Central-style peak prediction)."""

    percentile: float = bound(0, 100, open_low=True, default=99.0)

    def __post_init__(self) -> None:
        check_bounds(self)

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """The predicted peak of every row of a ``(windows × samples)``
        matrix."""
        rows = np.asarray(rows, dtype=float)
        if rows.shape[1] == 0:
            raise ConfigError("cannot predict from an empty sample window")
        # Recorded traces may have gaps (NaN samples); those must not
        # leak into placement scores.  Ignore them, but refuse a window
        # with no valid sample at all.
        gaps = np.isnan(rows)
        if gaps.any():
            if gaps.all(axis=1).any():
                raise ConfigError("cannot predict from an all-NaN sample window")
            return np.nanpercentile(rows, self.percentile, axis=1)
        return np.percentile(rows, self.percentile, axis=1)


@dataclass(eq=False)
class HostWindows:
    """The hosts' observed usage over one window, one row per host.

    ``samples`` is the ``(hosts × samples_per_window)`` matrix of
    *demanded* physical cores on the window's sample grid — unclipped,
    so a breach (demand above the physical core count) is visible to
    the estimators and the violation accounting.  ``allocated`` is what
    the scheduler has reserved.  ``hosts`` (default ``0..n-1``, no
    repeats) keys the stateful strategies' per-host state: dense
    non-negative indices, since that state is an array ``max(hosts) + 1``
    wide.
    """

    physical: np.ndarray
    allocated: np.ndarray
    samples: np.ndarray
    hosts: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.physical = np.asarray(self.physical, dtype=float)
        self.allocated = np.asarray(self.allocated, dtype=float)
        self.samples = np.asarray(self.samples, dtype=float)
        n = self.physical.size
        self.hosts = np.arange(n) if self.hosts is None else np.asarray(self.hosts)
        shapes = self.physical.shape, self.allocated.shape, self.hosts.shape
        if shapes != ((n,),) * 3 or self.samples.shape[:-1] != (n,):
            raise ConfigError(
                "physical, allocated, hosts and the sample rows describe different "
                f"host counts: {shapes} and {self.samples.shape}"
            )
        if (self.physical < 0).any() or (self.allocated < 0).any():
            raise ConfigError("physical and allocated capacities must be >= 0")
        if (self.hosts < 0).any():
            raise ConfigError("host ids index the per-host state and must be >= 0")
        #: Uncapped demand peak per host (exceeds ``physical`` on a
        #: breach); 0 for an empty window.
        self.peak_demand = (
            self.samples.max(axis=1) if self.samples.shape[1] else np.zeros(n)
        )
        #: Peak *served* usage: the demand peak, capped by the physical
        #: cores (a host cannot serve more than it has).
        self.used = np.minimum(self.peak_demand, self.physical)


class CapacityEstimator(ABC):
    """Maps the hosts' usage windows to effective CPU capacities.

    Subclasses implement :meth:`_estimate` over a :class:`HostWindows`
    batch (one array formula, no per-host loop); callers use
    :meth:`effective_capacities`, which applies the safety clamp
    ``[used, ratio_cap × physical]`` to the whole vector.  A stateful
    strategy names its per-host state's initial values in :attr:`_fresh`
    and reads it through :meth:`_host_state`; :meth:`reset` drops it so
    one instance can be reused across independent runs.
    """

    #: Registry key; subclasses override.
    name = "estimator"
    #: Ceiling of the effective capacity, as a multiple of physical.
    ratio_cap = 3.0
    #: Initial per-host state, one entry per state row (stateless: none).
    _fresh: tuple[float, ...] = ()

    def __init__(self) -> None:
        self.reset()

    @abstractmethod
    def _estimate(self, windows: HostWindows) -> np.ndarray:
        """Raw per-host effective-capacity estimates in physical cores."""

    def effective_capacities(self, windows: HostWindows) -> np.ndarray:
        """Clamped effective capacity of every host in the batch."""
        raw = self._estimate(windows)
        upper = self.ratio_cap * windows.physical
        return np.minimum(np.maximum(raw, windows.used), upper)

    def reset(self) -> None:
        """Drop per-host state (stateless strategies: nothing to drop)."""
        self._state = np.empty((len(self._fresh), 0))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"

    def _host_state(self, hosts: np.ndarray) -> np.ndarray:
        """A copy of the ``hosts`` columns of the state (new hosts start
        at :attr:`_fresh`); write back with ``self._state[:, hosts] = …``."""
        unseen = int(hosts.max(initial=-1)) + 1 - self._state.shape[1]
        if unseen > 0:
            fresh = np.tile(np.array(self._fresh)[:, None], unseen)
            self._state = np.concatenate([self._state, fresh], axis=1)
        return self._state[:, hosts]


class StaticRatio(CapacityEstimator):
    """The paper's baseline: effective capacity = ratio_cap × physical.

    A ratio of 1 is *exactly* today's behaviour — the per-level
    oversubscription is already encoded in the vNode ratios, so the
    host-level effective capacity equals the physical cores and the
    golden decision traces are reproduced byte-identically.
    """

    name = "static"
    ratio_cap = 1.0

    def _estimate(self, windows: HostWindows) -> np.ndarray:
        return self.ratio_cap * windows.physical


class PercentileEstimator(CapacityEstimator):
    """Resource Central-style windowed-percentile scaling.

    Predicts the host's usage peak from the window and scales the
    current reservation so that peak would land at ``1 - headroom`` of
    the physical capacity: ``eff = allocated × (1 - headroom) ×
    physical / peak``.  An idle-but-reserved host therefore earns a
    large effective capacity (its reservations barely translate into
    usage) while a hot host shrinks toward what it demonstrably needs.
    Hosts with no reservation or an empty window report neutral
    (physical) capacity — there is no signal to extrapolate from.
    """

    name = "percentile"
    predictor = PercentilePredictor(95.0)
    headroom = 0.1

    def _estimate(self, windows: HostWindows) -> np.ndarray:
        raw = windows.physical.copy()
        if windows.samples.shape[1] == 0:
            return raw
        rows = np.flatnonzero(windows.allocated > 0.0)
        physical = windows.physical[rows]
        peak = self.predictor.predict_rows(windows.samples[rows])
        target = (1.0 - self.headroom) * physical
        with np.errstate(all="ignore"):  # peak 0 is masked, a tiny one clamped
            scaled = windows.allocated[rows] * target / peak
        # Reserved but (as good as) unused: the signal supports the
        # most aggressive packing the ceiling allows.
        raw[rows] = np.where(peak <= 0.0, self.ratio_cap * physical, scaled)
        return raw


class DoaEstimator(CapacityEstimator):
    """ScroogeVM-style decrease-on-alert with per-host stability state.

    Each host carries an oversubscription ratio.  When the predicted
    usage peak crosses the ``alert`` fraction of physical capacity the
    ratio drops by ``decrease`` immediately (alerts are trusted).
    Raising it back is deliberately slow: the peak must stay within
    ``stability_margin × physical`` of the previous window's peak for
    ``stable_windows`` consecutive windows before the ratio gains
    ``increase`` — the stability signal that keeps DOA from oscillating
    on bursty hosts.
    """

    name = "doa"
    #: Per host: ratio, previous peak, consecutive stable windows.
    _fresh = (1.0, np.nan, 0.0)
    predictor = PercentilePredictor(90.0)
    alert = 0.85
    increase = 0.1
    decrease = 0.5
    stable_windows = 2
    stability_margin = 0.05

    def _estimate(self, windows: HostWindows) -> np.ndarray:
        physical = windows.physical
        ratio, last_peak, streak = self._host_state(windows.hosts)
        peak = np.zeros(physical.size)
        if windows.samples.shape[1]:
            rows = np.flatnonzero(physical > 0)
            peak[rows] = self.predictor.predict_rows(windows.samples[rows])
        alerted = (physical > 0) & (peak >= self.alert * physical)
        # NaN (no previous window) compares False: never stable.
        stable = np.abs(peak - last_peak) <= self.stability_margin * physical
        streak = np.where(alerted | ~stable, 0.0, streak + 1.0)
        raised = np.minimum(self.ratio_cap, ratio + self.increase)
        calm = np.where(streak >= self.stable_windows, raised, ratio)
        ratio = np.where(alerted, np.maximum(1.0, ratio - self.decrease), calm)
        self._state[:, windows.hosts] = ratio, peak, streak
        return ratio * physical


class GreedyEstimator(CapacityEstimator):
    """Step up while quiescent, multiplicative back-off on breach.

    The simplest adaptive strategy and the natural foil for DOA: no
    predictor, no stability signal.  While the raw demand peak stays
    under ``quiet × physical`` the per-host ratio gains ``step``
    additively; the moment it does not, the ratio collapses
    multiplicatively toward 1 (``1 + (ratio - 1) × backoff``) — an
    AIMD loop over host capacity.
    """

    name = "greedy"
    _fresh = (1.0,)  # per host: ratio
    quiet = 0.7
    step = 0.25
    backoff = 0.5

    def _estimate(self, windows: HostWindows) -> np.ndarray:
        (ratio,) = self._host_state(windows.hosts)
        ratio = np.where(
            windows.peak_demand <= self.quiet * windows.physical,
            np.minimum(self.ratio_cap, ratio + self.step),
            np.maximum(1.0, 1.0 + (ratio - 1.0) * self.backoff),
        )
        self._state[:, windows.hosts] = ratio
        return ratio * windows.physical


#: Strategy registry: name -> zero-argument factory.  Fresh instances
#: per cell — DOA and greedy carry per-host state.
STRATEGIES: dict[str, Callable[[], CapacityEstimator]] = {
    StaticRatio.name: StaticRatio,
    PercentileEstimator.name: PercentileEstimator,
    DoaEstimator.name: DoaEstimator,
    GreedyEstimator.name: GreedyEstimator,
}


def make_estimator(name: str) -> CapacityEstimator:
    """Instantiate a registered strategy."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown oversubscription strategy {name!r}; "
            f"expected one of {sorted(STRATEGIES)}"
        ) from None
    return factory()
