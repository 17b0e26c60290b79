"""Tests of the A-O level mixes."""

import pytest

from repro.core import WorkloadError
from repro.workload import DISTRIBUTIONS, mix_shares


def test_fifteen_distributions():
    assert len(DISTRIBUTIONS) == 15
    assert list(DISTRIBUTIONS) == [chr(ord("A") + i) for i in range(15)]


def test_paper_anchor_points():
    # §VII-B2 pins these mixes explicitly.
    assert DISTRIBUTIONS["A"] == (100, 0, 0)  # only 1:1
    assert DISTRIBUTIONS["O"] == (0, 0, 100)  # only 3:1
    assert DISTRIBUTIONS["F"] == (50, 0, 50)  # the 9.6% case


def test_no_3to1_distributions_match_paper():
    # "distributions A, B, D, G, and K" are exactly those without 3:1 VMs.
    without = {k for k, (s1, s2, s3) in DISTRIBUTIONS.items() if s3 == 0}
    assert without == {"A", "B", "D", "G", "K"}


def test_all_mixes_sum_to_100():
    for mix in DISTRIBUTIONS.values():
        assert sum(mix) == 100


def test_enumerate_matches_frozen_constants():
    # The paper's order: decreasing 1:1 share, then decreasing 2:1 share.
    grid = [
        (s1, s2, 100 - s1 - s2)
        for s1 in range(100, -1, -25)
        for s2 in range(100 - s1, -1, -25)
    ]
    assert list(DISTRIBUTIONS.values()) == grid


class TestMixShares:
    def test_by_name(self):
        shares = mix_shares("F")
        assert shares == {1.0: 0.5, 2.0: 0.0, 3.0: 0.5}

    def test_name_is_case_insensitive(self):
        assert mix_shares("f") == mix_shares("F")

    def test_by_tuple_normalizes(self):
        assert mix_shares((1, 1, 2)) == {1.0: 0.25, 2.0: 0.25, 3.0: 0.5}

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            mix_shares("Z")

    def test_negative_share_rejected(self):
        with pytest.raises(WorkloadError):
            mix_shares((-1, 2, 0))

    def test_zero_total_rejected(self):
        with pytest.raises(WorkloadError):
            mix_shares((0, 0, 0))
