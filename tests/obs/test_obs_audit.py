"""Tests for the differential audit tool."""

import random

import pytest

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.core.errors import ConfigError
from repro.hardware import MachineSpec
from repro.localsched import LocalScheduler
from repro.obs import ADMISSION_GROWTH, DecisionRecord, HostDecision, MemoryRecorder
from repro.obs.audit import audit_workload, diff_decision_streams
from repro.scheduling import scheduler_for_policy
from repro.simulator import POLICIES, Simulation, VectorSimulation


def random_workload(n, seed):
    rng = random.Random(seed)
    vms = []
    for i in range(n):
        arrival = rng.uniform(0.0, 100.0)
        departs = rng.random() < 0.5
        vms.append(
            VMRequest(
                f"vm-{i:03d}",
                VMSpec(rng.choice([1, 2, 4, 8]), float(rng.choice([1, 2, 4, 8, 16]))),
                OversubscriptionLevel(rng.choice([1.0, 2.0, 3.0])),
                arrival=arrival,
                departure=arrival + rng.uniform(0.5, 50.0) if departs else None,
            )
        )
    return vms


MACHINES = [MachineSpec(f"pm-{i}", 16, 64.0) for i in range(3)]


class TestAuditAgreement:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_agree_on_random_workload(self, policy):
        report = audit_workload(random_workload(40, seed=policy), MACHINES, policy=policy)
        assert report.ok, report.summary()
        assert report.num_arrivals == 40
        assert len(report.object_decisions) == len(report.vector_decisions) == 40
        assert "divergences: 0" in report.summary()

    def test_agreement_with_pooling_disabled(self):
        # audit_workload's replay, at a non-default config.
        cfg, workload = SlackVMConfig(pooling=False), random_workload(30, seed=5)
        obj, vec = MemoryRecorder(), MemoryRecorder()
        Simulation(
            [LocalScheduler(m, cfg) for m in MACHINES],
            scheduler_for_policy("progress"),
            recorder=obj,
        ).run(workload)
        VectorSimulation(MACHINES, config=cfg, policy="progress", recorder=vec).run(
            workload
        )
        assert len(obj.decisions) == 30
        assert diff_decision_streams(obj.decisions, vec.decisions) == []

    def test_report_dict_shape(self):
        report = audit_workload(random_workload(10, seed=1), MACHINES)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["policy"] == "progress"
        assert len(payload["decisions"]["object"]) == 10
        assert payload["object"]["metrics"]["arrivals"]["value"] == 10
        assert "decisions" not in report.to_dict(include_decisions=False)

    def test_metrics_collected_for_both_engines(self):
        report = audit_workload(random_workload(10, seed=2), MACHINES)
        for metrics in (report.object_metrics, report.vector_metrics):
            assert metrics["arrivals"]["value"] == 10
            assert "select_s" in metrics

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            audit_workload(random_workload(5, seed=3), MACHINES, policy="nope")
        with pytest.raises(ConfigError):
            scheduler_for_policy("nope")


def _decision(seq, vm_id, chosen, score=1.0, admission=ADMISSION_GROWTH,
              hosted_ratio=2.0, growth=1, eligible=(0, 1)):
    hosts = tuple(
        HostDecision(j, j in eligible, {"CapacityFilter": j in eligible},
                     {"w": score} if j in eligible else {},
                     score if j in eligible else None)
        for j in range(2)
    )
    return DecisionRecord(
        seq=seq, time=float(seq), vm_id=vm_id, scheduler="test",
        hosts=hosts, chosen=chosen, admission=admission,
        hosted_ratio=hosted_ratio, growth=growth,
    )


class TestDiffLocalization:
    def test_identical_streams(self):
        a = [_decision(0, "vm-0", 0), _decision(1, "vm-1", 1)]
        assert diff_decision_streams(a, list(a)) == []

    def test_chosen_divergence_localized(self):
        obj = [_decision(0, "vm-0", 0), _decision(1, "vm-1", 0)]
        vec = [_decision(0, "vm-0", 0), _decision(1, "vm-1", 1)]
        divs = diff_decision_streams(obj, vec)
        assert len(divs) == 1
        assert divs[0].seq == 1
        assert divs[0].kind == "chosen"
        assert divs[0].object_value == 0
        assert divs[0].vector_value == 1
        text = divs[0].describe()
        assert "vm-1" in text and "chosen diverged" in text

    def test_candidate_set_divergence_wins_over_chosen(self):
        obj = [_decision(0, "vm-0", 0, eligible=(0, 1))]
        vec = [_decision(0, "vm-0", 1, eligible=(1,))]
        divs = diff_decision_streams(obj, vec)
        assert divs[0].kind == "candidates"

    def test_score_divergence_within_tolerance_ignored(self):
        obj = [_decision(0, "vm-0", 0, score=1.0)]
        vec = [_decision(0, "vm-0", 0, score=1.0 + 1e-12)]
        assert diff_decision_streams(obj, vec) == []

    def test_score_divergence_beyond_tolerance_reported(self):
        obj = [_decision(0, "vm-0", 0, score=1.0)]
        vec = [_decision(0, "vm-0", 0, score=1.5)]
        divs = diff_decision_streams(obj, vec)
        assert divs[0].kind == "scores"

    def test_stream_length_mismatch(self):
        obj = [_decision(0, "vm-0", 0)]
        divs = diff_decision_streams(obj, [])
        assert divs[0].kind == "stream_length"

    def test_max_divergences_caps_collection(self):
        obj = [_decision(i, f"vm-{i}", 0) for i in range(20)]
        vec = [_decision(i, f"vm-{i}", 1) for i in range(20)]
        divs = diff_decision_streams(obj, vec)
        assert len(divs) == 10

    def test_admission_divergence(self):
        obj = [_decision(0, "vm-0", 0, admission="growth")]
        vec = [_decision(0, "vm-0", 0, admission="pooled")]
        divs = diff_decision_streams(obj, vec)
        assert divs[0].kind == "admission"
