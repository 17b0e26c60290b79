"""Tests of the ASCII renderers."""

from repro.analysis import (
    format_table,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table4,
)
from repro.api import RunSpec, evaluate


def test_format_table_alignment():
    out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert set(lines[1]) <= {"-", " "}


def test_render_table1():
    out = render_table1({"azure": (2.25, 4.8)})
    assert "azure" in out and "2.25" in out and "4.80" in out


def test_render_table2():
    out = render_table2({"ovh": {1.0: 3.1, 2.0: 3.9, 3.0: 5.8}})
    assert "3:1" in out and "5.8" in out


def test_render_table4():
    out = render_table4({"1:1": (1.16, 1.27, 1.09)})
    assert "1.16" in out and "(x1.09)" in out


def test_render_fig3_and_fig4():
    outcome = evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=80, seed=0))
    fig3 = render_fig3({"F": outcome})
    assert "F" in fig3 and "50/0/50" in fig3
    fig4 = render_fig4({"F": outcome.savings_percent, "A": 0.0})
    assert "1:1=50%" in fig4
    assert "2:1=  0%" in fig4
