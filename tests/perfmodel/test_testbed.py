"""Tests of the testbed harness (short runs; the full experiment lives
in benchmarks/test_table4_fig2_response_times.py)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import LEVEL_1_1, LEVEL_3_1, ConfigError, SimulationError, SlackVMConfig
from repro.hardware import EPYC_7662_DUAL
from repro.localsched import LocalScheduler
from repro.perfmodel import (
    ChurnParams,
    CpuSetCapacity,
    LatencyParams,
    TestbedParams,
    build_vm_population,
    run_testbed,
)


@pytest.fixture(scope="module")
def result():
    # Short run: enough windows for stable medians, fast enough for CI.
    return run_testbed(TestbedParams(duration=240.0))


def test_fill_single_level_respects_capacity():
    params = TestbedParams()
    rng = np.random.default_rng(0)
    agent = LocalScheduler(EPYC_7662_DUAL, SlackVMConfig(levels=(LEVEL_1_1,)))
    vms = build_vm_population(agent, (LEVEL_1_1,), params, rng)
    assert sum(v.spec.vcpus for v in vms) <= EPYC_7662_DUAL.cpus
    assert sum(v.spec.mem_gb for v in vms) <= EPYC_7662_DUAL.mem_gb
    # The PM genuinely refused the next VM: it is nearly full.
    assert agent.allocated_cpus > agent.machine.cpus - 16 or agent.free_mem < 64


def test_oversubscribed_fill_hosts_more_vms():
    params = TestbedParams()
    rng = np.random.default_rng(0)
    prem = LocalScheduler(EPYC_7662_DUAL, SlackVMConfig(levels=(LEVEL_1_1,)))
    n_prem = len(build_vm_population(prem, (LEVEL_1_1,), params, rng))
    over = LocalScheduler(EPYC_7662_DUAL, SlackVMConfig(levels=(LEVEL_3_1,)))
    n_over = len(build_vm_population(over, (LEVEL_3_1,), params, rng))
    assert n_over > 1.5 * n_prem  # §VII-A1: 131 vs 356 in the paper


def test_slackvm_hosts_all_levels_in_roughly_equal_shares(result):
    counts = result.slackvm_vm_counts
    assert set(counts) == {"1:1", "2:1", "3:1"}
    low, high = min(counts.values()), max(counts.values())
    assert high - low <= 2  # round-robin fill


def test_table4_reports_all_levels(result):
    table = result.table4()
    assert set(table) == {"1:1", "2:1", "3:1"}
    for base, slack, ratio in table.values():
        assert base > 0 and slack > 0
        assert ratio == pytest.approx(slack / base)


def test_baseline_latency_increases_with_oversubscription(result):
    table = result.table4()
    assert table["1:1"][0] <= table["2:1"][0] <= table["3:1"][0] * 1.05


def test_premium_level_is_preserved_under_cohosting(result):
    """§VII-A2: the least oversubscribed VMs see <10-ish % degradation;
    the highest level absorbs the penalty."""
    table = result.table4()
    assert table["1:1"][2] < 1.3  # premium preserved (generous CI margin)
    assert table["3:1"][2] > table["1:1"][2]  # 3:1 pays more than premium


def test_fig2_distributions_available(result):
    for perf in list(result.baseline.values()) + list(result.slackvm.values()):
        q1, q2, q3 = perf.quartiles_ms()
        assert q1 <= q2 <= q3
        assert perf.num_interactive > 0


#: Every parameter dataclass of the testbed, with the arguments it needs
#: besides the field under test, and the error it raises.
PARAMS = (
    (TestbedParams, {}, ConfigError),
    (ChurnParams, {}, SimulationError),
    (LatencyParams, {}, ConfigError),
    (CpuSetCapacity, {"threads": 4, "physical": 2}, ConfigError),
)
FLOAT_FIELDS = [
    (cls, extra, error, f.name)
    for cls, extra, error in PARAMS
    for f in dataclasses.fields(cls)
    if f.type in (float, "float")
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize(
    "cls, extra, error, name",
    FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, _, _, name in FLOAT_FIELDS],
)
def test_float_parameters_must_be_finite_and_in_range(cls, extra, error, name, value):
    with pytest.raises(error):
        cls(**extra, **{name: value})
