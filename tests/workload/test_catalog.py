"""Catalog tests: the frozen catalogs must match the paper's moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VMSpec, WorkloadError
from repro.workload import AZURE, OVERSUB_MEM_CAP_GB, OVHCLOUD, PROVIDERS, Catalog


class TestTable1Moments:
    def test_azure_mean_requests(self):
        # Table I: 2.25 vCPUs and 4.8 GB per VM.
        assert AZURE.mean_vcpus == pytest.approx(2.25, abs=0.005)
        assert AZURE.mean_mem_gb == pytest.approx(4.8, abs=0.01)

    def test_ovhcloud_mean_requests(self):
        # Table I: 3.24 vCPUs and 10.05 GB per VM.
        assert OVHCLOUD.mean_vcpus == pytest.approx(3.24, abs=0.005)
        assert OVHCLOUD.mean_mem_gb == pytest.approx(10.05, abs=0.01)


class TestTable2Ratios:
    @pytest.mark.parametrize(
        "catalog,level,expected",
        [
            (AZURE, 1.0, 2.1),
            (AZURE, 2.0, 3.0),
            (AZURE, 3.0, 4.5),
            (OVHCLOUD, 1.0, 3.1),
            (OVHCLOUD, 2.0, 3.9),
            (OVHCLOUD, 3.0, 5.8),
        ],
    )
    def test_mc_ratio_matches_paper(self, catalog, level, expected):
        assert catalog.mc_ratio(level) == pytest.approx(expected, abs=0.05)

    def test_oversubscribed_ratios_use_restricted_catalog(self):
        # The ratio at 2:1 must be exactly twice the restricted per-vCPU
        # ratio, not twice the full-catalog ratio.
        restricted = AZURE.restricted()
        per_vcpu = restricted.mean_mem_gb / restricted.mean_vcpus
        assert AZURE.mc_ratio(2.0) == pytest.approx(2 * per_vcpu)
        assert AZURE.mc_ratio(2.0) != pytest.approx(2 * AZURE.mc_ratio(1.0))


class TestRestriction:
    def test_restricted_drops_large_flavors(self):
        restricted = OVHCLOUD.restricted()
        assert all(s.mem_gb <= OVERSUB_MEM_CAP_GB for s in restricted.specs)

    def test_restricted_probabilities_renormalized(self):
        restricted = AZURE.restricted()
        assert restricted.probabilities.sum() == pytest.approx(1.0)

    def test_restriction_below_all_flavors_rejected(self):
        with pytest.raises(WorkloadError):
            OVHCLOUD.restricted(max_mem_gb=0.5)


class TestSampling:
    def test_sample_is_deterministic_per_seed(self):
        a = AZURE.sample(np.random.default_rng(7), size=50)
        b = AZURE.sample(np.random.default_rng(7), size=50)
        assert a == b

    def test_samples_come_from_catalog(self):
        specs = set(AZURE.specs)
        for s in AZURE.sample(np.random.default_rng(0), size=200):
            assert s in specs

    def test_single_sample(self):
        assert isinstance(AZURE.sample(np.random.default_rng(0)), VMSpec)

    def test_empirical_mean_approaches_moment(self):
        rng = np.random.default_rng(123)
        draws = AZURE.sample(rng, size=20_000)
        assert np.mean([d.vcpus for d in draws]) == pytest.approx(2.25, rel=0.05)

    @pytest.mark.parametrize("size", [None, 7])
    def test_every_accepted_catalog_samples(self, size):
        # Off by 5e-7: inside the constructor's 1e-6 tolerance, outside
        # the ~1.5e-8 one rng.choice(p=...) enforces.
        cat = Catalog("x", ((VMSpec(1, 1.0), 0.5), (VMSpec(2, 2.0), 0.5000005)))
        drawn = cat.sample(np.random.default_rng(0), size=size)
        assert set([drawn] if size is None else drawn) <= set(cat.specs)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=12
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(st.none(), st.integers(1, 60)),
    )
    def test_sample_is_rng_choice_in_lockstep(self, weights, seed, size):
        # Renormalised as the frozen catalogs are; the oracle is numpy's
        # own weighted choice on an identically seeded generator.
        total = sum(weights)
        cat = Catalog("h", tuple(
            (VMSpec(i + 1, 1.0), w / total) for i, w in enumerate(weights)
        ))
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = oracle.choice(len(weights), size=size, p=cat.probabilities)
        expected = (
            cat.entries[int(idx)][0] if size is None
            else [cat.entries[i][0] for i in idx]
        )
        assert cat.sample(ours, size=size) == expected
        assert ours.random() == oracle.random()


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            Catalog("bad", ((VMSpec(1, 1.0), 0.5),))

    def test_duplicate_flavors_rejected(self):
        with pytest.raises(WorkloadError):
            Catalog("bad", ((VMSpec(1, 1.0), 0.5), (VMSpec(1, 1.0), 0.5)))

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            Catalog("bad", ())

    def test_providers_registry(self):
        assert PROVIDERS["azure"] is AZURE
        assert PROVIDERS["ovhcloud"] is OVHCLOUD
