"""Smoke tests: every example script must run end-to-end.

Examples are the library's advertised entry points; these tests run
each one in a subprocess (with downsized arguments where the script
accepts them) and assert on a fragment of its expected output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "SlackVM shared cluster" in out
    assert "% of the fleet saved" in out


def test_provider_study_small():
    out = run_example("provider_study.py", "azure", "60")
    assert "Figure 3" in out and "Figure 4" in out
    assert "Best mix:" in out


def test_testbed_isolation_short():
    out = run_example("testbed_isolation.py", "120")
    assert "Table IV" in out
    assert "1:1" in out and "3:1" in out


def test_capacity_planning(tmp_path):
    out = run_example("capacity_planning.py")
    assert "Theoretical lower bound" in out
    assert "progress" in out


def test_topology_pinning():
    out = run_example("topology_pinning.py")
    assert "LLC groups shared between vNodes: 0" in out
    assert "Naive (index-order) allocation" in out


def test_resilience_study():
    out = run_example("resilience_study.py")
    assert "Injecting 2 PM failures" in out
    assert "spare PMs" in out


def test_utilization_study():
    out = run_example("utilization_study.py")
    assert "efficiency" in out
    assert "1:1" in out and "4:1" in out


def test_control_plane():
    out = run_example("control_plane.py")
    assert "Capacity-pending placements:" in out
    assert "Drain:" in out
    assert "with the pending FIFO full" in out
    assert "rejection rate" in out


def test_custom_provider():
    out = run_example("custom_provider.py")
    assert "Calibrating a catalog" in out
    assert "savings" in out
