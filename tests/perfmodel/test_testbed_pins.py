"""Bit-level pins for the testbed half: the §VII-A harnesses and vNode pinning.

Each pin is the sha256 of a stream of canonical JSON rows:

* ``testbed``: every :class:`~repro.perfmodel.LevelPerf` field of
  ``run_testbed(TestbedParams(duration=240.0))``, p90 arrays included,
  and ``slackvm_vm_counts``;
* ``churn``: every :class:`~repro.perfmodel.ChurnResult` field of a
  300 s churn run at one event per 10 s;
* ``topology/aware`` and ``topology/naive``: each vNode's ``cpu_ids``
  after every deploy of the topology ablation's VM stream
  (``benchmarks/test_ablation_topology.py``), on the testbed machine;
* ``accounting``: ``(pin_generation, {ratio: cpu_ids})`` after each step
  of a fixed deploy/remove script on an accounting-mode agent.

A refactor of ``repro.localsched``, ``repro.perfmodel`` or
``repro.hardware`` must leave ``data/testbed_pins.json`` untouched;
regenerate it (only for an intended change of the model) with
``PYTHONPATH=src python tests/perfmodel/test_testbed_pins.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import DEFAULT_LEVELS, LEVEL_1_1, LEVEL_2_1, LEVEL_3_1, SlackVMConfig
from repro.core.spec import canonical_json
from repro.core.types import VMRequest, VMSpec
from repro.hardware import EPYC_7662_DUAL, MachineSpec, epyc_7662_dual
from repro.localsched import LocalScheduler
from repro.perfmodel import ChurnParams, TestbedParams, run_churn_testbed, run_testbed

PINS = Path(__file__).resolve().parent / "data" / "testbed_pins.json"


def sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(canonical_json(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def vnode_cpus(agent: LocalScheduler) -> dict[str, list[int]]:
    return {str(node.level.ratio): list(node.cpu_ids) for node in agent.vnodes}


def rows_testbed():
    result = run_testbed(TestbedParams(duration=240.0))
    for scenario in (result.baseline, result.slackvm):
        for name, perf in scenario.items():
            yield {
                "key": name,
                "scenario": perf.scenario,
                "level": [perf.level.name, perf.level.ratio, perf.level.mem_ratio],
                "num_vms": perf.num_vms,
                "num_interactive": perf.num_interactive,
                "p90s": perf.p90s.tolist(),
            }
    yield {"slackvm_vm_counts": result.slackvm_vm_counts}


def rows_churn():
    result = run_churn_testbed(
        ChurnParams(base=TestbedParams(duration=300.0), event_interval=10.0)
    )
    yield {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def rows_topology(topology_aware: bool):
    """The topology ablation's deploy stream (60 VMs, rng seed 1)."""
    rng = np.random.default_rng(1)
    agent = LocalScheduler(
        EPYC_7662_DUAL,
        SlackVMConfig(topology_aware=topology_aware, pooling=False),
        topology=epyc_7662_dual(),
    )
    for i in range(60):
        level = DEFAULT_LEVELS[i % 3]
        vcpus = int(rng.choice([1, 2, 4]))
        agent.deploy(VMRequest(vm_id=f"vm-{i}", spec=VMSpec(vcpus, 4.0), level=level))
        yield vnode_cpus(agent)


#: (op, vm id, vCPUs, level): grows, slack reuse, pooling, shrinks, a
#: vNode destroyed and re-seeded, and reuse of released CPUs.
SCRIPT = (
    ("deploy", "a", 3, LEVEL_2_1),
    ("deploy", "b", 1, LEVEL_2_1),
    ("deploy", "p", 2, LEVEL_1_1),
    ("deploy", "c", 4, LEVEL_3_1),
    ("deploy", "d", 4, LEVEL_2_1),
    ("deploy", "e", 2, LEVEL_3_1),
    ("remove", "a", 0, None),
    ("deploy", "f", 1, LEVEL_3_1),
    ("remove", "p", 0, None),
    ("deploy", "g", 6, LEVEL_3_1),
    ("remove", "d", 0, None),
    ("remove", "b", 0, None),
    ("deploy", "h", 2, LEVEL_1_1),
    ("deploy", "i", 5, LEVEL_2_1),
    ("deploy", "k", 2, LEVEL_1_1),
    ("deploy", "m", 2, LEVEL_3_1),
    ("deploy", "n", 1, LEVEL_3_1),
    ("remove", "c", 0, None),
    ("remove", "n", 0, None),
    ("remove", "g", 0, None),
    ("deploy", "j", 3, LEVEL_3_1),
)


def rows_accounting():
    agent = LocalScheduler(MachineSpec("pm", 12, 48.0), SlackVMConfig())
    for op, vm_id, vcpus, level in SCRIPT:
        if op == "deploy":
            agent.deploy(VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, 2.0), level=level))
        else:
            agent.remove(vm_id)
        yield [agent.pin_generation, vnode_cpus(agent)]


PINNED = {
    "testbed": rows_testbed,
    "churn": rows_churn,
    "topology/aware": lambda: rows_topology(True),
    "topology/naive": lambda: rows_topology(False),
    "accounting": rows_accounting,
}


def compute_pins() -> dict:
    return {key: sha(rows()) for key, rows in PINNED.items()}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(PINNED))
def test_testbed_stream_is_pinned(pins, key):
    assert sha(PINNED[key]()) == pins[key]


def test_pins_cover_exactly_the_pinned_streams(pins):
    assert set(pins) == set(PINNED)


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    recorded = compute_pins()
    PINS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} pins to {PINS}")
