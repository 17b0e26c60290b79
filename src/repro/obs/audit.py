"""Differential audit: replay one workload through both engines and
localize the first divergence.

The repo's load-bearing guarantee is that the object path
(:class:`~repro.simulator.engine.Simulation`) and the vectorized hot
path (:class:`~repro.simulator.vectorpool.VectorSimulation`) place
identically.  The equivalence tests assert that as a pass/fail; this
module turns it into a *localization* tool: it records both engines'
per-arrival :class:`~repro.obs.records.DecisionRecord` streams, diffs
them event-by-event, and reports the first disagreement with the full
candidate/score context of both sides — which arrival, which hosts
each engine considered eligible, how each scored them, and what each
admitted.

Entry points: :func:`audit_workload` (library) and the ``audit`` CLI
subcommand (``repro audit`` / ``slackvm audit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Sequence

from repro.core.config import SlackVMConfig
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.localsched.agent import LocalScheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import DecisionRecord, MemoryRecorder
from repro.scheduling.baselines import scheduler_for_policy
from repro.simulator.engine import Simulation, SimulationResult
from repro.simulator.vectorpool import VectorSimulation

__all__ = ["Divergence", "AuditReport", "audit_workload", "diff_decision_streams"]

#: Relative tolerance when comparing total scores across engines.  The
#: two paths compute the same formulas through different float
#: pipelines (scalar vs numpy reductions), so bit-exact equality is not
#: guaranteed; placement decisions, however, must match exactly.
SCORE_RTOL = 1e-6


@dataclass(frozen=True, slots=True)
class Divergence:
    """One disagreement between the engines' decision streams."""

    seq: int  # arrival index where the streams disagree
    vm_id: str
    kind: str  # which field diverged (chosen/admission/candidates/...)
    object_value: object
    vector_value: object
    object_decision: Optional[DecisionRecord] = None
    vector_decision: Optional[DecisionRecord] = None

    def describe(self) -> str:
        lines = [
            f"arrival #{self.seq} (vm {self.vm_id}): {self.kind} diverged",
            f"  object path: {self.object_value!r}",
            f"  vector path: {self.vector_value!r}",
        ]
        for label, dec in (
            ("object", self.object_decision),
            ("vector", self.vector_decision),
        ):
            if dec is None:
                continue
            lines.append(
                f"  {label} decision: chosen={dec.chosen} admission={dec.admission} "
                f"hosted_ratio={dec.hosted_ratio} growth={dec.growth}"
            )
            for h in dec.hosts:
                if h.eligible:
                    lines.append(
                        f"    host {h.host}: eligible score={h.score!r} "
                        f"({h.weigher_scores})"
                    )
                else:
                    failed = [name for name, ok in h.filters.items() if not ok]
                    lines.append(f"    host {h.host}: filtered out by {failed}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "vm_id": self.vm_id,
            "kind": self.kind,
            "object_value": self.object_value,
            "vector_value": self.vector_value,
            "object_decision": (
                self.object_decision.to_dict() if self.object_decision else None
            ),
            "vector_decision": (
                self.vector_decision.to_dict() if self.vector_decision else None
            ),
        }


@dataclass
class AuditReport:
    """The outcome of one differential replay."""

    policy: str
    num_hosts: int
    num_arrivals: int
    divergences: list[Divergence]
    object_result: SimulationResult
    vector_result: SimulationResult
    object_decisions: list[DecisionRecord]
    vector_decisions: list[DecisionRecord]
    object_metrics: dict = field(default_factory=dict)
    vector_metrics: dict = field(default_factory=dict)
    object_wall_s: float = 0.0
    vector_wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def first_divergence(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def summary(self) -> str:
        lines = [
            f"audit: policy={self.policy} hosts={self.num_hosts} "
            f"arrivals={self.num_arrivals}",
            f"  object path: {len(self.object_result.placements)} placed, "
            f"{len(self.object_result.rejections)} rejected, "
            f"{self.object_result.pooled_placements} pooled "
            f"({self.object_wall_s:.3f}s)",
            f"  vector path: {len(self.vector_result.placements)} placed, "
            f"{len(self.vector_result.rejections)} rejected, "
            f"{self.vector_result.pooled_placements} pooled "
            f"({self.vector_wall_s:.3f}s)",
        ]
        if self.ok:
            lines.append("  divergences: 0 — engines agree event-by-event")
        else:
            lines.append(f"  divergences: {len(self.divergences)} (first shown)")
            lines.append(self.first_divergence.describe())
        return "\n".join(lines)

    def to_dict(self, include_decisions: bool = True) -> dict:
        payload = {
            "policy": self.policy,
            "num_hosts": self.num_hosts,
            "num_arrivals": self.num_arrivals,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "object": {
                "placed": len(self.object_result.placements),
                "rejected": len(self.object_result.rejections),
                "pooled": self.object_result.pooled_placements,
                "wall_s": self.object_wall_s,
                "metrics": self.object_metrics,
            },
            "vector": {
                "placed": len(self.vector_result.placements),
                "rejected": len(self.vector_result.rejections),
                "pooled": self.vector_result.pooled_placements,
                "wall_s": self.vector_wall_s,
                "metrics": self.vector_metrics,
            },
        }
        if include_decisions:
            payload["decisions"] = {
                "object": [d.to_dict() for d in self.object_decisions],
                "vector": [d.to_dict() for d in self.vector_decisions],
            }
        return payload


def _scores_close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL)


#: Divergences one diff collects before it stops.
_MAX_DIVERGENCES = 10


def diff_decision_streams(
    obj: Sequence[DecisionRecord], vec: Sequence[DecisionRecord]
) -> list[Divergence]:
    """Event-by-event diff of two decision streams.

    Comparison order per arrival: stream alignment (vm id), candidate
    set, chosen host, admission kind, hosted level, vNode growth, then
    per-candidate total scores (within :data:`SCORE_RTOL`).  The first
    failing field is reported for each arrival; collection stops after
    :data:`_MAX_DIVERGENCES` so a systematic drift doesn't flood the
    report.
    """
    divergences: list[Divergence] = []

    def add(seq, vm_id, kind, ov, vv, od=None, vd=None) -> bool:
        divergences.append(Divergence(seq, vm_id, kind, ov, vv, od, vd))
        return len(divergences) >= _MAX_DIVERGENCES

    if len(obj) != len(vec):
        add(
            min(len(obj), len(vec)),
            "<stream>",
            "stream_length",
            len(obj),
            len(vec),
        )
    for o, v in zip(obj, vec):
        if o.vm_id != v.vm_id:
            if add(o.seq, o.vm_id, "vm_id", o.vm_id, v.vm_id, o, v):
                break
            continue
        if o.candidates != v.candidates:
            if add(o.seq, o.vm_id, "candidates", o.candidates, v.candidates, o, v):
                break
            continue
        if o.chosen != v.chosen:
            if add(o.seq, o.vm_id, "chosen", o.chosen, v.chosen, o, v):
                break
            continue
        if o.admission != v.admission:
            if add(o.seq, o.vm_id, "admission", o.admission, v.admission, o, v):
                break
            continue
        if o.hosted_ratio != v.hosted_ratio:
            if add(o.seq, o.vm_id, "hosted_ratio", o.hosted_ratio, v.hosted_ratio, o, v):
                break
            continue
        if o.growth != v.growth:
            if add(o.seq, o.vm_id, "growth", o.growth, v.growth, o, v):
                break
            continue
        oscores = {h.host: h.score for h in o.hosts if h.eligible}
        vscores = {h.host: h.score for h in v.hosts if h.eligible}
        bad = [
            (j, oscores[j], vscores[j])
            for j in oscores
            if j in vscores and not _scores_close(oscores[j], vscores[j])
        ]
        if bad:
            j, oscore, vscore = bad[0]
            if add(
                o.seq, o.vm_id, "scores",
                {"host": j, "score": oscore},
                {"host": j, "score": vscore},
                o, v,
            ):
                break
    return divergences


def audit_workload(
    workload: list[VMRequest],
    machines: Sequence[MachineSpec],
    policy: str = "progress",
) -> AuditReport:
    """Replay ``workload`` through both engines and diff their decisions.

    The object path gets one :class:`LocalScheduler` per machine (same
    machine specs, the default config) and the scheduler matching ``policy``
    via :func:`~repro.scheduling.baselines.scheduler_for_policy`; the
    vector path gets :class:`VectorSimulation` with the policy string.
    Both run fully instrumented (decision records + metrics).
    """
    cfg = SlackVMConfig()
    scheduler = scheduler_for_policy(policy)

    obj_recorder = MemoryRecorder()
    obj_metrics = MetricsRegistry()
    hosts = [LocalScheduler(m, cfg) for m in machines]
    t0 = perf_counter()
    obj_result = Simulation(
        hosts, scheduler, recorder=obj_recorder, metrics=obj_metrics
    ).run(workload)
    obj_wall = perf_counter() - t0

    vec_recorder = MemoryRecorder()
    vec_metrics = MetricsRegistry()
    t0 = perf_counter()
    vec_result = VectorSimulation(
        machines, config=cfg, policy=policy,
        recorder=vec_recorder, metrics=vec_metrics,
    ).run(workload)
    vec_wall = perf_counter() - t0

    divergences = diff_decision_streams(obj_recorder.decisions, vec_recorder.decisions)
    return AuditReport(
        policy=policy,
        num_hosts=len(list(machines)),
        num_arrivals=len(obj_recorder.decisions),
        divergences=divergences,
        object_result=obj_result,
        vector_result=vec_result,
        object_decisions=obj_recorder.decisions,
        vector_decisions=vec_recorder.decisions,
        object_metrics=obj_metrics.to_dict(),
        vector_metrics=vec_metrics.to_dict(),
        object_wall_s=obj_wall,
        vector_wall_s=vec_wall,
    )
