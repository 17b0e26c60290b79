"""CSV exporter tests."""

import csv

import pytest

from repro.analysis.export import export_fig2_csv, export_fig3_csv, export_fig4_csv
from repro.api import RunSpec, evaluate
from repro.perfmodel import TestbedParams, run_testbed


@pytest.fixture(scope="module")
def outcome():
    return evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=80, seed=0))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fig3_csv(tmp_path, outcome):
    path = tmp_path / "fig3.csv"
    export_fig3_csv({"F": outcome}, path)
    rows = read_csv(path)
    assert rows[0][0] == "distribution"
    assert rows[1][0] == "F"
    assert float(rows[1][4]) == pytest.approx(outcome.baseline_unallocated.cpu)


def test_fig4_csv(tmp_path, outcome):
    path = tmp_path / "fig4.csv"
    export_fig4_csv({"F": outcome.savings_percent, "A": 0.0}, path)
    rows = read_csv(path)
    assert len(rows) == 3
    f_row = next(r for r in rows if r[0] == "F")
    assert f_row[1:4] == ["50", "0", "50"]


def test_fig2_csv(tmp_path):
    result = run_testbed(TestbedParams(duration=120.0))
    path = tmp_path / "fig2.csv"
    export_fig2_csv(result, path)
    rows = read_csv(path)
    assert rows[0] == ["scenario", "level", "p90_seconds"]
    scenarios = {r[0] for r in rows[1:]}
    assert scenarios == {"baseline", "slackvm"}
    assert all(float(r[2]) > 0 for r in rows[1:])
