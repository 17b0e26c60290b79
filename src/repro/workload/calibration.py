"""Catalog calibration: fit flavor probabilities to published statistics.

Given a set of candidate flavors and the provider statistics the paper
publishes (Table I means and the Table II restricted M/C ratio), find
the probability vector closest to uniform (minimum KL divergence) that
satisfies the moment constraints.  The frozen
:data:`~repro.workload.catalog.AZURE` and
:data:`~repro.workload.catalog.OVHCLOUD` catalogs meet the same
moments (``docs/CALIBRATION.md``); providers adopting this library can
calibrate catalogs to their own fleet statistics the same way.

Requires scipy (an optional dependency; everything else in the library
runs on numpy alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.spec import bound, check_bounds
from repro.core.types import VMSpec
from repro.workload.catalog import OVERSUB_MEM_CAP_GB, Catalog

__all__ = ["CalibrationTarget", "calibrate_catalog"]

#: Largest moment residual a calibrated catalog may leave.
_TOL = 1e-6


@dataclass(frozen=True)
class CalibrationTarget:
    """The statistics a calibrated catalog must reproduce."""

    ERROR: ClassVar[type[WorkloadError]] = WorkloadError

    #: Table I: mean vCPUs per VM over the full catalog.
    mean_vcpus: float = bound(0, open_low=True)
    #: Table I: mean memory (GB) per VM over the full catalog.
    mean_mem_gb: float = bound(0, open_low=True)
    #: Table II (divided by the oversubscription ratio): mean GB per
    #: vCPU over the flavors of at most :data:`OVERSUB_MEM_CAP_GB`.
    #: None skips the restricted-moment constraint.
    restricted_mem_per_vcpu: float | None = bound(0, open_low=True, default=None)

    def __post_init__(self) -> None:
        check_bounds(self)


def calibrate_catalog(
    name: str,
    flavors: Sequence[VMSpec],
    target: CalibrationTarget,
) -> Catalog:
    """Fit flavor probabilities to ``target`` by min-KL projection.

    Solves ``min_p KL(p || uniform)`` subject to the linear moment
    constraints, via SLSQP.  Raises :class:`WorkloadError` when the
    constraints are infeasible for the given flavor set (e.g. every
    eligible flavor has a higher memory/vCPU ratio than the target —
    the failure mode that forces adding leaner flavors).
    """
    try:
        from scipy.optimize import minimize
    except ImportError as exc:  # pragma: no cover - env-specific
        raise WorkloadError(
            "catalog calibration requires scipy (optional dependency)"
        ) from exc

    flavors = list(flavors)
    if len(flavors) < 3:
        raise WorkloadError("need at least 3 candidate flavors")
    if len(set(flavors)) != len(flavors):
        raise WorkloadError("duplicate candidate flavors")
    n = len(flavors)
    v = np.array([f.vcpus for f in flavors], dtype=float)
    m = np.array([f.mem_gb for f in flavors], dtype=float)
    small = m <= OVERSUB_MEM_CAP_GB

    uniform = np.full(n, 1.0 / n)

    rows = [np.ones(n), v, m]
    rhs = [1.0, target.mean_vcpus, target.mean_mem_gb]
    if target.restricted_mem_per_vcpu is not None:
        if not small.any():
            raise WorkloadError(
                "no flavor fits under the oversubscription memory cap"
            )
        r = target.restricted_mem_per_vcpu
        ratios = m[small] / v[small]
        if r < ratios.min() - 1e-12 or r > ratios.max() + 1e-12:
            raise WorkloadError(
                f"restricted ratio {r:g} is outside the eligible flavors' "
                f"range [{ratios.min():g}, {ratios.max():g}]"
            )
        rows.append(np.where(small, m - r * v, 0.0))
        rhs.append(0.0)
    A = np.vstack(rows)
    b = np.array(rhs)

    def objective(p: np.ndarray) -> float:
        p = np.clip(p, 1e-12, None)
        return float(np.sum(p * np.log(p / uniform)))

    constraints = [
        {"type": "eq", "fun": (lambda p, Ai=A[i], bi=b[i]: float(Ai @ p - bi))}
        for i in range(len(b))
    ]
    res = minimize(
        objective,
        uniform,
        constraints=constraints,
        bounds=[(1e-9, 1.0)] * n,
        method="SLSQP",
        options={"maxiter": 5000, "ftol": 1e-14},
    )
    p = np.clip(res.x, 0.0, None)
    residual = float(np.abs(A @ p - b).max())
    if not res.success or residual > _TOL:
        raise WorkloadError(
            f"calibration failed (residual {residual:.2e}): the targets may "
            "be infeasible for this flavor set"
        )
    p = p / p.sum()
    return Catalog(name=name, entries=tuple(zip(flavors, (float(x) for x in p))))
