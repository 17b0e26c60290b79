"""ASCII chart rendering tests."""

import pytest

from repro.analysis.ascii_charts import boxplot, grouped_hbar
from repro.core import ConfigError


class TestGroupedHbar:
    def test_structure(self):
        out = grouped_hbar(
            ["A", "B"],
            {"baseline": [10.0, 5.0], "slackvm": [4.0, 3.0]},
            width=20,
        )
        lines = out.splitlines()
        assert lines[0] == "A"
        assert "baseline" in lines[1] and "slackvm" in lines[2]
        assert lines[3] == "B"

    def test_shared_scale_across_series(self):
        out = grouped_hbar(["A"], {"x": [10.0], "y": [5.0]}, width=10)
        lines = out.splitlines()
        assert lines[1].count("█") == 10  # the max fills the width
        assert lines[2].count("█") == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            grouped_hbar(["A", "B"], {"x": [1.0]})


class TestBoxplot:
    def test_median_marker_and_whiskers(self):
        out = boxplot({"lvl": (1.0, 2.0, 3.0, 4.0, 5.0)}, width=21)
        line = out.splitlines()[0]
        assert line.count("#") == 1
        assert line.count("|") == 2
        assert "=" in line

    def test_log_scale_orders_like_figure2(self):
        rows = {
            "1:1": (1.0, 1.1, 1.2, 1.4, 1.6),
            "3:1": (2.5, 2.6, 2.8, 3.2, 12.0),
        }
        out = boxplot(rows, width=40, log=True)
        assert "log scale" in out
        # The 3:1 median marker sits to the right of the 1:1 one.
        l1, l3 = out.splitlines()[0], out.splitlines()[1]
        assert l3.index("#") > l1.index("#")

    def test_log_requires_positive(self):
        with pytest.raises(ConfigError):
            boxplot({"x": (0.0, 1.0, 2.0, 3.0, 4.0)}, log=True)

    def test_unordered_summary_rejected(self):
        with pytest.raises(ConfigError):
            boxplot({"x": (5.0, 1.0, 2.0, 3.0, 4.0)})

    def test_degenerate_distribution(self):
        out = boxplot({"flat": (2.0, 2.0, 2.0, 2.0, 2.0)})
        assert "#" in out
