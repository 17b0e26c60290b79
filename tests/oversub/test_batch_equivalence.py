"""The batch is the unit: row *i* of a ``HostWindows`` batch gets what
host *i* would get alone.

Three references are compared, bit for bit (``==``, never ``approx``;
the monitor's demand matrix likewise, against the per-VM accumulation):

* the batch form (``effective_capacities`` over ``HostWindows``),
* one-row batches (each host alone in a ``HostWindows`` of its own),
* ``Scalar*`` below: the per-host rules as they were written before the
  estimators were vectorised, kept here (and only here) as the oracle
  for "today's answers" on the edge rows — zero-sample windows,
  ``physical == 0``, ``allocated == 0``, all-zero peaks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LEVEL_1_1, ConfigError, VMRequest, VMSpec
from repro.oversub.estimators import (
    STRATEGIES,
    DoaEstimator,
    GreedyEstimator,
    HostWindows,
    make_estimator,
)
from repro.oversub.monitor import ClusterUsageMonitor, profile_for_vm

# -- the scalar oracle ---------------------------------------------------------


def _peak(est, samples):
    return float(np.percentile(samples, est.predictor.percentile))


class ScalarStatic:
    def estimate(self, est, host, physical, allocated, samples):
        return est.ratio_cap * physical


class ScalarPercentile:
    def estimate(self, est, host, physical, allocated, samples):
        if allocated <= 0.0 or samples.size == 0:
            return physical
        peak = _peak(est, samples)
        if peak <= 0.0:
            return est.ratio_cap * physical
        return allocated * ((1.0 - est.headroom) * physical) / peak


class ScalarDoa:
    def __init__(self):
        self.state = {}

    def estimate(self, est, host, physical, allocated, samples):
        ratio, last_peak, streak = self.state.get(host, (1.0, math.nan, 0))
        peak = _peak(est, samples) if samples.size and physical > 0 else 0.0
        if physical > 0 and peak >= est.alert * physical:
            ratio, streak = max(1.0, ratio - est.decrease), 0
        else:
            stable = (
                not math.isnan(last_peak)
                and abs(peak - last_peak) <= est.stability_margin * physical
            )
            streak = streak + 1 if stable else 0
            if streak >= est.stable_windows:
                ratio = min(est.ratio_cap, ratio + est.increase)
        self.state[host] = (ratio, peak, streak)
        return ratio * physical


class ScalarGreedy:
    def __init__(self):
        self.ratio = {}

    def estimate(self, est, host, physical, allocated, samples):
        ratio = self.ratio.get(host, 1.0)
        peak = float(samples.max()) if samples.size else 0.0
        if peak <= est.quiet * physical:
            ratio = min(est.ratio_cap, ratio + est.step)
        else:
            ratio = max(1.0, 1.0 + (ratio - 1.0) * est.backoff)
        self.ratio[host] = ratio
        return ratio * physical


def alone(est, host, physical, allocated, samples):
    """``est``'s capacity for one host in a one-row batch of its own."""
    batch = HostWindows([physical], [allocated], np.asarray(samples)[None, :], [host])
    return float(est.effective_capacities(batch)[0])


ORACLES = {
    "static": ScalarStatic,
    "percentile": ScalarPercentile,
    "doa": ScalarDoa,
    "greedy": ScalarGreedy,
}


def oracle_capacity(oracle, est, host, physical, allocated, samples):
    raw = oracle.estimate(est, host, physical, allocated, samples)
    used = float(min(samples.max(), physical)) if samples.size else 0.0
    return float(min(max(raw, used), est.ratio_cap * physical))


# -- generated update sequences ------------------------------------------------

# Edge values are drawn often: unpowered hosts, unreserved hosts, idle
# windows, demand right at and above the physical cores.
cores = st.sampled_from([0.0, 1.0, 8.0, 16.0, 48.0]) | st.floats(0.0, 64.0)
demand = st.sampled_from([0.0, 0.0, 4.0, 16.0, 70.0]) | st.floats(0.0, 96.0)


@st.composite
def update_sequences(draw):
    """(physical, [(allocated, samples)] per update) for one cluster."""
    n = draw(st.integers(1, 6))
    width = draw(st.sampled_from([0, 1, 2, 5, 8]))
    physical = draw(st.lists(cores, min_size=n, max_size=n))
    updates = []
    for _ in range(draw(st.integers(1, 6))):
        allocated = draw(st.lists(cores, min_size=n, max_size=n))
        rows = draw(
            st.lists(
                st.lists(demand, min_size=width, max_size=width), min_size=n, max_size=n
            )
        )
        updates.append((allocated, np.array(rows, dtype=float).reshape(n, width)))
    return physical, updates


@settings(max_examples=60, deadline=None)
@given(seq=update_sequences(), data=st.data())
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_batch_rows_equal_one_row_views_and_the_scalar_rules(strategy, seq, data):
    physical, updates = seq
    n = len(physical)
    batch, single, est = (make_estimator(strategy) for _ in range(3))
    oracle = ORACLES[strategy]()
    for allocated, samples in updates:
        # Rows arrive in any order: state follows `hosts`, not the row.
        order = np.array(data.draw(st.permutations(range(n))))
        eff = batch.effective_capacities(
            HostWindows(
                np.array(physical)[order], np.array(allocated)[order],
                samples[order], hosts=order,
            )
        )
        for row, host in enumerate(order):
            args = host, physical[host], allocated[host], samples[host]
            one = alone(single, *args)
            assert eff[row] == one
            assert one == oracle_capacity(oracle, est, *args)
            # The clamp contract, row-wise.
            used = min(samples[host].max(), physical[host]) if samples[host].size else 0.0
            assert used <= one <= batch.ratio_cap * physical[host]


@settings(max_examples=30, deadline=None)
@given(seq=update_sequences())
@pytest.mark.parametrize("strategy", ["doa", "greedy"])
def test_reset_drops_every_hosts_state(strategy, seq):
    physical, updates = seq
    warmed, fresh = make_estimator(strategy), make_estimator(strategy)
    for allocated, samples in updates:
        warmed.effective_capacities(HostWindows(physical, allocated, samples))
    warmed.reset()
    allocated, samples = updates[0]
    first = HostWindows(physical, allocated, samples)
    assert (
        warmed.effective_capacities(first).tolist()
        == fresh.effective_capacities(first).tolist()
    )


def test_state_does_not_leak_to_a_host_first_seen_later():
    for est in (DoaEstimator(), GreedyEstimator()):
        quiet = np.full((2, 4), 1.0)
        for _ in range(4):
            est.effective_capacities(HostWindows([16.0, 16.0], [8.0, 8.0], quiet))
        grown = HostWindows([16.0] * 3, [8.0] * 3, np.full((3, 4), 1.0))
        eff = est.effective_capacities(grown)
        fresh = type(est)()
        assert eff[2] == fresh.effective_capacities(grown)[2]
        assert eff[0] == eff[1] > eff[2]


def test_host_ids_are_non_negative_state_indices():
    # A negative id would alias another host's state column.
    for make in (
        lambda: HostWindows([16.0, 16.0], [8.0, 8.0], np.ones((2, 4)), [0, -1]),
        lambda: HostWindows([16.0], [8.0], np.ones((1, 4)), [-1]),
    ):
        with pytest.raises(ConfigError):
            make()
    # Sparse ids are served (the state is as wide as the largest one).
    est = GreedyEstimator()
    sparse = HostWindows([16.0, 16.0], [8.0, 8.0], np.ones((2, 4)), [5, 2])
    assert est.effective_capacities(sparse).tolist() == [16.0 * (1.0 + est.step)] * 2


# -- the monitor's demand matrix -----------------------------------------------


@st.composite
def placed_vms(draw):
    vm_id = draw(st.text("abcdef", min_size=1, max_size=3))
    return (
        VMRequest(
            vm_id=vm_id,
            spec=VMSpec(draw(st.integers(1, 32)), 4.0),
            level=LEVEL_1_1,
            arrival=draw(st.sampled_from([0.0, 40.0, 100.0]) | st.floats(0.0, 2e5)),
            usage_kind=draw(st.sampled_from(["idle", "stress", "interactive", "batch"])),
            usage_param=draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5)),
        ),
        draw(st.integers(0, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(
    placements=st.lists(placed_vms(), max_size=12, unique_by=lambda p: p[0].vm_id),
    time=st.floats(1.0, 3e5),
    width=st.sampled_from([2, 3, 8, 16]),
)
def test_demand_matrix_equals_the_per_vm_accumulation(placements, time, width):
    mon = ClusterUsageMonitor(window=1800.0, samples_per_window=width)
    start = max(0.0, time - mon.window)
    times = np.linspace(start, time, width)
    demand = np.zeros((4, width))
    for vm, host in placements:
        series = profile_for_vm(vm).demand_series(times) * float(vm.spec.vcpus)
        if vm.arrival > start:
            series = np.where(times >= vm.arrival, series, 0.0)
        demand[host] += series
    for _ in range(2):  # second pass: constants come from the cache
        batch = mon.windows(placements, [16.0] * 4, [8.0] * 4, time)
        assert batch.samples.tobytes() == demand.tobytes()
