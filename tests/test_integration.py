"""Cross-module integration tests: the paper's causal chain end-to-end.

Each test exercises a full pipeline (generator → scheduler → simulator →
metrics) and asserts a *qualitative* result the paper reports, at small
scale so the suite stays fast.
"""

import pytest

from repro.api import RunSpec, evaluate
from repro.core import LEVEL_1_1, LEVEL_3_1, SlackVMConfig
from repro.hardware import SIM_WORKER
from repro.simulator import demand_lower_bound, minimal_cluster
from repro.workload import OVHCLOUD, WorkloadParams, generate_workload


POP = 200  # concurrent VMs; small but large enough for stable shapes


def trace(catalog, mix, seed=42, pop=POP):
    return generate_workload(
        WorkloadParams(catalog=catalog, level_mix=mix, target_population=pop, seed=seed)
    )


class TestComplementarity:
    """§III: different oversubscription levels saturate different
    resources, and co-hosting them saves PMs."""

    def test_dedicated_1to1_is_cpu_bound(self):
        sub = trace(OVHCLOUD, "A")
        cfg = SlackVMConfig(levels=(LEVEL_1_1,))
        sized = minimal_cluster(sub, SIM_WORKER, policy="first_fit", config=cfg)
        cpu_un, mem_un = sized.result.unallocated_at_peak()
        assert mem_un > cpu_un  # memory stranded, CPU exhausted

    def test_dedicated_3to1_is_memory_bound(self):
        sub = trace(OVHCLOUD, "O")
        cfg = SlackVMConfig(levels=(LEVEL_3_1,))
        sized = minimal_cluster(sub, SIM_WORKER, policy="first_fit", config=cfg)
        cpu_un, mem_un = sized.result.unallocated_at_peak()
        assert cpu_un > mem_un  # CPU stranded, memory exhausted

    def test_sharing_complementary_levels_saves_pms(self):
        out = evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=POP, seed=42))
        assert out.savings_percent > 2.0

    def test_azure_also_gains_on_low_1to1_mixes(self):
        out = evaluate(RunSpec(provider="azure", mix="J", target_population=POP, seed=42))
        assert out.savings_percent >= 0.0


class TestSchedulerQuality:
    def test_progress_scheduler_never_needs_more_than_lower_bound_x2(self):
        workload = trace(OVHCLOUD, "E")
        sized = minimal_cluster(workload, SIM_WORKER, policy="progress")
        assert sized.pms <= 2 * sized.lower_bound

    def test_progress_beats_or_matches_worst_fit(self):
        workload = trace(OVHCLOUD, "F")
        progress = minimal_cluster(workload, SIM_WORKER, policy="progress")
        worst = minimal_cluster(workload, SIM_WORKER, policy="worst_fit")
        assert progress.pms <= worst.pms

    def test_sized_cluster_is_minimal(self):
        """One fewer PM must actually fail (the sizing search promise)."""
        workload = trace(OVHCLOUD, "F", pop=80)
        sized = minimal_cluster(workload, SIM_WORKER, policy="progress")
        if sized.pms > sized.lower_bound:
            from repro.simulator import VectorSimulation
            from repro.hardware import MachineSpec

            machines = [
                MachineSpec(f"m-{i}", SIM_WORKER.cpus, SIM_WORKER.mem_gb)
                for i in range(sized.pms - 1)
            ]
            sim = VectorSimulation(machines, policy="progress", fail_fast=True)
            assert not sim.run(workload).feasible


class TestPooling:
    def test_pooling_never_hurts_cluster_size(self):
        workload = trace(OVHCLOUD, "M", seed=11)
        spec = RunSpec(provider="ovhcloud", mix="M")
        pooled = evaluate(spec, workload=workload)
        unpooled = evaluate(spec.replace(pooling=False), workload=workload)
        assert pooled.slackvm_pms <= unpooled.slackvm_pms + 1


class TestDeterminism:
    def test_full_pipeline_is_reproducible(self):
        spec = RunSpec(provider="ovhcloud", mix="F", target_population=100, seed=3)
        a, b = evaluate(spec), evaluate(spec)
        assert a.slackvm_pms == b.slackvm_pms
        assert a.baseline_pms_per_level == b.baseline_pms_per_level
        assert tuple(a.slackvm_unallocated) == tuple(b.slackvm_unallocated)
