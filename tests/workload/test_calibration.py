"""Catalog calibration tests — including re-deriving the frozen catalogs."""

import numpy as np
import pytest

from repro.core import VMSpec, WorkloadError
from repro.workload import AZURE, OVHCLOUD
from repro.workload.calibration import CalibrationTarget, calibrate_catalog

pytest.importorskip("scipy")


AZURE_TARGET = CalibrationTarget(
    mean_vcpus=2.25, mean_mem_gb=4.8, restricted_mem_per_vcpu=1.5
)
OVH_TARGET = CalibrationTarget(
    mean_vcpus=3.24, mean_mem_gb=10.05, restricted_mem_per_vcpu=29 / 15
)


def test_rederive_azure_catalog_moments():
    cat = calibrate_catalog("azure-refit", AZURE.specs, AZURE_TARGET)
    assert cat.mean_vcpus == pytest.approx(2.25, abs=1e-4)
    assert cat.mean_mem_gb == pytest.approx(4.8, abs=1e-4)
    assert cat.mc_ratio(2.0) == pytest.approx(3.0, abs=1e-3)
    assert cat.mc_ratio(3.0) == pytest.approx(4.5, abs=1e-3)


def test_rederive_ovh_catalog_moments():
    cat = calibrate_catalog("ovh-refit", OVHCLOUD.specs, OVH_TARGET)
    assert cat.mean_vcpus == pytest.approx(3.24, abs=1e-4)
    assert cat.mc_ratio(3.0) == pytest.approx(5.8, abs=1e-3)


def test_uniform_prior_also_feasible():
    """The fit is the one closest to uniform: no catalog meeting the same
    moments, the frozen one included, has a higher entropy."""
    cat = calibrate_catalog("uniform", AZURE.specs, AZURE_TARGET)

    def entropy(p):
        p = np.asarray(p)
        return float(-(p * np.log(p)).sum())

    assert entropy(cat.probabilities) > entropy(AZURE.probabilities)


def test_infeasible_restricted_ratio_rejected():
    """The OVHcloud failure mode: all eligible flavors have mem/vCPU >= 2,
    so a restricted ratio below 2 is impossible."""
    flavors = [VMSpec(1, 2.0), VMSpec(2, 4.0), VMSpec(2, 8.0), VMSpec(4, 16.0)]
    target = CalibrationTarget(mean_vcpus=2.0, mean_mem_gb=6.0,
                               restricted_mem_per_vcpu=1.9)
    with pytest.raises(WorkloadError, match="outside the eligible"):
        calibrate_catalog("bad", flavors, target)


def test_impossible_means_rejected():
    flavors = [VMSpec(1, 1.0), VMSpec(2, 2.0), VMSpec(4, 4.0)]
    target = CalibrationTarget(mean_vcpus=16.0, mean_mem_gb=1.0)
    with pytest.raises(WorkloadError):
        calibrate_catalog("bad", flavors, target)


def test_validation():
    with pytest.raises(WorkloadError):
        CalibrationTarget(mean_vcpus=0.0, mean_mem_gb=1.0)
    with pytest.raises(WorkloadError):
        calibrate_catalog("x", [VMSpec(1, 1.0)], AZURE_TARGET)
