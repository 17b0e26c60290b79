"""Tests of the SMT-aware CPU-set capacity model."""

import pytest

from repro.core import ConfigError
from repro.perfmodel import CpuSetCapacity


class TestCapacity:
    def test_fully_paired_set(self):
        cap = CpuSetCapacity(threads=8, physical=4, smt_speedup=1.3)
        assert cap.paired_cores == 4
        assert cap.max_throughput == pytest.approx(4 + 0.3 * 4)

    def test_unpaired_set_has_no_smt_gain(self):
        cap = CpuSetCapacity(threads=4, physical=4)
        assert cap.paired_cores == 0
        assert cap.max_throughput == 4.0

    def test_deliverable_is_identity_below_physical(self):
        cap = CpuSetCapacity(threads=8, physical=4)
        assert cap.deliverable(3.0) == 3.0
        assert cap.deliverable(4.0) == 4.0

    def test_deliverable_marginal_rate_in_smt_zone(self):
        cap = CpuSetCapacity(threads=8, physical=4, smt_speedup=1.3)
        # 1 core-second of demand beyond physical yields 0.3 extra.
        assert cap.deliverable(5.0) == pytest.approx(4.3)

    def test_deliverable_saturates(self):
        cap = CpuSetCapacity(threads=8, physical=4, smt_speedup=1.3)
        assert cap.deliverable(100.0) == cap.max_throughput

    def test_deliverable_monotone(self):
        cap = CpuSetCapacity(threads=6, physical=4, smt_speedup=1.4)
        values = [cap.deliverable(d / 10) for d in range(0, 120)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestPressure:
    def test_no_pressure_below_physical(self):
        cap = CpuSetCapacity(threads=8, physical=4)
        assert cap.smt_pressure(4.0) == 0.0

    def test_pressure_grows_with_overflow(self):
        cap = CpuSetCapacity(threads=8, physical=4)
        low = cap.smt_pressure(4.5)
        high = cap.smt_pressure(7.0)
        assert 0 < low < high <= 1.0

    def test_no_pressure_without_siblings(self):
        cap = CpuSetCapacity(threads=4, physical=4)
        assert cap.smt_pressure(10.0) == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "threads,physical",
        [(0, 0), (2, 0), (1, 2), (9, 4)],
    )
    def test_invalid_sets(self, threads, physical):
        with pytest.raises(ConfigError):
            CpuSetCapacity(threads=threads, physical=physical)

    def test_speedup_below_one_rejected(self):
        with pytest.raises(ConfigError):
            CpuSetCapacity(threads=4, physical=4, smt_speedup=0.9)
