"""Tests of the platform-utilization analysis."""

import pytest

from repro.analysis.utilization import UtilizationReport, cluster_utilization
from repro.core import (
    LEVEL_1_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.hardware import MachineSpec
from repro.simulator import VectorSimulation


def vm(vm_id, vcpus=4, mem=4.0, level=LEVEL_1_1, kind="stress", param=0.5,
       arrival=0.0, departure=None):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level,
                     usage_kind=kind, usage_param=param,
                     arrival=arrival, departure=departure)


def run(trace, cpus=8, levels=None):
    cfg = SlackVMConfig() if levels is None else SlackVMConfig(levels=levels)
    sim = VectorSimulation([MachineSpec("pm", cpus, 64.0)], config=cfg,
                           policy="first_fit")
    return sim.run(trace)


def test_stress_vm_usage_matches_param():
    trace = [vm("a", vcpus=4, param=0.5, departure=100.0),
             vm("end", vcpus=1, arrival=100.0, param=0.0, kind="idle")]
    result = run(trace)
    report = cluster_utilization(trace, result)
    # 4 vCPUs at 50% for the whole window on an 8-CPU PM ~ 25% used.
    assert report.used_cpu_share == pytest.approx(0.25, abs=0.03)
    assert report.allocated_cpu_share == pytest.approx(0.5, abs=0.05)
    assert report.overcommit_efficiency == pytest.approx(0.5, abs=0.1)


def test_oversubscription_raises_exposed_share():
    trace = [vm("a", vcpus=8, level=LEVEL_3_1, param=0.2, departure=100.0),
             vm("b", vcpus=8, level=LEVEL_3_1, param=0.2, departure=100.0),
             vm("end", vcpus=1, arrival=100.0, kind="idle", param=0.0)]
    result = run(trace)
    report = cluster_utilization(trace, result)
    assert report.exposed_vcpu_share > 1.0  # more vCPUs than CPUs
    assert report.allocated_cpu_share < 1.0


def test_oversubscription_improves_efficiency():
    """The intro's causal chain: for the same lightly-used VMs, an
    oversubscribed reservation wastes less of what it allocates."""
    def trace(level):
        return [vm(f"v{i}", vcpus=2, level=level, param=0.25, departure=100.0)
                for i in range(3)] + [vm("end", vcpus=1, arrival=100.0,
                                         kind="idle", param=0.0)]

    premium = trace(LEVEL_1_1)
    r1 = cluster_utilization(premium, run(premium))
    oversub = trace(LEVEL_3_1)
    r3 = cluster_utilization(oversub, run(oversub))
    assert r3.overcommit_efficiency > r1.overcommit_efficiency


def test_unplaced_vms_are_ignored():
    giant = vm("giant", vcpus=64)
    small = vm("small", vcpus=2, departure=50.0)
    trace = [giant, small, vm("end", vcpus=1, arrival=100.0, kind="idle", param=0.0)]
    result = run(trace)
    assert "giant" in result.rejections
    report = cluster_utilization(trace, result)
    assert report.exposed_vcpu_share < 1.0


def test_report_zero_allocation():
    report = UtilizationReport(0.0, 0.0, 0.0)
    assert report.overcommit_efficiency == 0.0
