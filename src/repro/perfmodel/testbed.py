"""The physical-experiment harness (paper §VII-A, Table IV & Fig. 2).

Reproduces the testbed study in simulation: one 2×EPYC-7662 worker
(Table III) is filled with Azure-sized VMs — 10 % idle, 60 % CPU
benchmark, 30 % interactive applications whose p90 response times are
the measurement — under two scenarios:

* **baseline** — three dedicated PMs, one per oversubscription level,
  each packed to capacity with that level only, no pinning (every VM
  may run anywhere on the machine);
* **slackvm** — a single PM hosting all three levels concurrently
  (≈ one third each), each level pinned to its topology-allocated
  vNode.

The response-time gap between the scenarios emerges from the model's
mechanics: constrained vNode CPU sets activate SMT sibling pairs
earlier than a whole free machine, and co-hosted neighbours add
PM-level interference.

:func:`run_churn_testbed` drives the co-hosted PM through VM arrivals
and departures *during* the measurement: vNodes grow and shrink, the
pinning changes only on deploy/destroy events (§V-A), and LLC isolation
between vNodes is tracked throughout.  Both harnesses advance time
through the same :func:`_tick`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.errors import SimulationError
from repro.core.spec import bound, check_bounds
from repro.core.types import (
    DEFAULT_LEVELS,
    OversubscriptionLevel,
    VMRequest,
)
from repro.hardware.machine import EPYC_7662_DUAL, MachineSpec
from repro.hardware.topology import Topology
from repro.localsched.agent import LocalScheduler
from repro.localsched.pinning import shared_llc_violations
from repro.perfmodel.apps import LatencyParams, LatencyTracker
from repro.perfmodel.contention import ContentionGroup, GroupMember
from repro.perfmodel.smt import CpuSetCapacity
from repro.workload.catalog import AZURE, Catalog
from repro.workload.usage import DEFAULT_BEHAVIOUR_SHARES

__all__ = [
    "TestbedParams",
    "LevelPerf",
    "TestbedResult",
    "run_testbed",
    "build_vm_population",
    "ChurnParams",
    "ChurnResult",
    "run_churn_testbed",
]

#: §VII-A's VM behaviours (idle / stress / interactive), in draw order.
_KINDS = sorted(DEFAULT_BEHAVIOUR_SHARES)
_KIND_PROBS = np.array([DEFAULT_BEHAVIOUR_SHARES[k] for k in _KINDS])
#: Beta shapes of per-VM utilisation draws (Azure-like: most VMs use a
#: small fraction of their vCPUs).
STRESS_UTIL_BETA = (2.0, 7.0)
INTERACTIVE_BASE_BETA = (2.0, 8.0)
#: Share of the machine's CPUs the churn run reserves before churn starts.
WARM_FILL = 0.7


@dataclass(frozen=True)
class TestbedParams:
    """Knobs of the testbed reproduction."""

    __test__ = False  # not a pytest class, despite the Test* name

    machine: MachineSpec = EPYC_7662_DUAL
    catalog: Catalog = AZURE
    levels: tuple[OversubscriptionLevel, ...] = DEFAULT_LEVELS
    duration: float = bound(0, open_low=True, default=1800.0)
    dt: float = bound(0, open_low=True, default=1.0)
    smt_speedup: float = bound(1, default=1.3)
    latency: LatencyParams = field(default_factory=LatencyParams)
    #: Per-VM lognormal AR(1) demand burstiness (spreads Fig. 2's boxes).
    demand_noise_sigma: float = bound(0, default=0.2)
    seed: int = bound(0, default=2024)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class LevelPerf:
    """Measured p90 distribution of one level in one scenario."""

    scenario: str
    level: OversubscriptionLevel
    num_vms: int
    num_interactive: int
    p90s: np.ndarray

    @property
    def median_p90_ms(self) -> float:
        if len(self.p90s) == 0:
            raise SimulationError(
                f"no latency samples for {self.scenario}/{self.level.name}"
            )
        return float(np.median(self.p90s)) * 1e3

    def quartiles_ms(self) -> tuple[float, float, float]:
        q1, q2, q3 = np.percentile(self.p90s, [25, 50, 75]) * 1e3
        return float(q1), float(q2), float(q3)


@dataclass
class TestbedResult:
    __test__ = False  # not a pytest class, despite the Test* name

    baseline: dict[str, LevelPerf]
    slackvm: dict[str, LevelPerf]
    slackvm_vm_counts: dict[str, int]

    def table4(self) -> dict[str, tuple[float, float, float]]:
        """{level: (baseline ms, slackvm ms, overhead ratio)} — Table IV."""
        out = {}
        for name, base in self.baseline.items():
            slack = self.slackvm[name]
            b, s = base.median_p90_ms, slack.median_p90_ms
            out[name] = (b, s, s / b)
        return out


def _draw_vm(
    restricted: Catalog,
    level: OversubscriptionLevel,
    params: TestbedParams,
    rng: np.random.Generator,
    index: int,
) -> VMRequest:
    cat = params.catalog if level.is_premium else restricted
    spec = cat.sample(rng)
    kind = _KINDS[int(rng.choice(len(_KINDS), p=_KIND_PROBS))]
    if kind == "idle":
        param = 0.0
    elif kind == "stress":
        param = float(np.clip(rng.beta(*STRESS_UTIL_BETA), 0.02, 1.0))
    else:
        param = float(np.clip(rng.beta(*INTERACTIVE_BASE_BETA), 0.05, 0.9))
    return VMRequest(
        vm_id=f"{level.name}-vm-{index:04d}",
        spec=spec,
        level=level,
        usage_kind=kind,
        usage_param=param,
    )


def build_vm_population(
    agent: LocalScheduler,
    levels: Sequence[OversubscriptionLevel],
    params: TestbedParams,
    rng: np.random.Generator,
) -> list[VMRequest]:
    """Deploy VMs round-robin over ``levels`` until ``agent`` refuses one."""
    restricted = params.catalog.restricted()
    vms: list[VMRequest] = []
    for i in itertools.count():
        vm = _draw_vm(restricted, levels[i % len(levels)], params, rng, i)
        if not agent.can_deploy(vm):
            return vms
        agent.deploy(vm)
        vms.append(vm)


def _members(vms: Sequence[VMRequest], rng: np.random.Generator) -> list[GroupMember]:
    # Per-VM diurnal phase: tenants live in different timezones.
    return [GroupMember.from_request(vm, phase=float(rng.uniform())) for vm in vms]


def _capacity(
    topology: Topology, cpu_ids: Sequence[int], params: TestbedParams
) -> CpuSetCapacity:
    return CpuSetCapacity(
        threads=len(cpu_ids),
        physical=topology.physical_cores_spanned(cpu_ids),
        smt_speedup=params.smt_speedup,
    )


def _vnode_groups(
    agent: LocalScheduler,
    topology: Topology,
    members: Mapping[str, GroupMember],
    params: TestbedParams,
    rng: np.random.Generator,
) -> list[ContentionGroup]:
    """One contention group per vNode (its pinned CPU set), in level order."""
    groups = []
    for level in params.levels:
        node = agent.vnode_for(level)
        if node is not None:
            groups.append(
                ContentionGroup(
                    _capacity(topology, node.cpu_ids, params),
                    [members[vm_id] for vm_id in node.vm_ids],
                    rng=rng,
                    noise_sigma=params.demand_noise_sigma,
                )
            )
    return groups


def _tick(
    t: float,
    groups: Sequence[ContentionGroup],
    pm_capacity: CpuSetCapacity,
    trackers: Mapping[str, LatencyTracker],
    dt: float,
) -> None:
    """Step the PM's groups jointly and feed every tracked member's latency."""
    ticks = [group.step(t) for group in groups]
    delivered = sum(tk.total_allocation for tk in ticks)
    pm_util = min(1.0, delivered / pm_capacity.max_throughput)
    for group, tick in zip(groups, ticks):
        slowdowns = tick.slowdowns
        for j, member in enumerate(group.members):
            tracker = trackers.get(member.vm.vm_id)
            if tracker is not None:
                tracker.observe(
                    t, dt, float(tick.demands[j]), float(slowdowns[j]),
                    tick.smt_pressure, pm_util,
                    pool_utilization=tick.utilization, pool_size=group.capacity.physical,
                )


def _measure(
    groups: Sequence[ContentionGroup],
    pm_capacity: CpuSetCapacity,
    params: TestbedParams,
    rng: np.random.Generator,
) -> dict[str, LatencyTracker]:
    """Run the static PM for ``params.duration``; trackers by vm id."""
    trackers = {
        m.vm.vm_id: LatencyTracker(params.latency, m.vm.vm_id, m.vm.spec.vcpus, rng)
        for g in groups
        for m in g.members
        if m.vm.usage_kind == "interactive"
    }
    for t in np.arange(0.0, params.duration, params.dt):
        _tick(float(t), groups, pm_capacity, trackers, params.dt)
    return trackers


def _collect(
    scenario: str,
    level: OversubscriptionLevel,
    vms: Sequence[VMRequest],
    trackers: Mapping[str, LatencyTracker],
) -> LevelPerf:
    tracked = [trackers[vm.vm_id] for vm in vms if vm.vm_id in trackers]
    p90s = np.concatenate([tr.window_p90s() for tr in tracked]) if tracked else np.array([])
    return LevelPerf(scenario, level, len(vms), len(tracked), p90s)


def run_testbed(params: TestbedParams | None = None) -> TestbedResult:
    """Run both scenarios and return Table IV / Fig. 2 data."""
    params = params or TestbedParams()
    rng = np.random.default_rng(params.seed)
    topology = params.machine.build_topology()
    pm_capacity = _capacity(topology, range(topology.num_cpus), params)

    baseline: dict[str, LevelPerf] = {}
    for level in params.levels:
        agent = LocalScheduler(params.machine, SlackVMConfig(levels=(level,)))
        vms = build_vm_population(agent, (level,), params, rng)
        group = ContentionGroup(
            pm_capacity, _members(vms, rng), rng=rng, noise_sigma=params.demand_noise_sigma
        )
        trackers = _measure([group], pm_capacity, params, rng)
        baseline[level.name] = _collect("baseline", level, vms, trackers)

    # SlackVM: all levels co-hosted on one topology-aware PM, ~1/3 each.
    config = SlackVMConfig(levels=params.levels, pooling=False)
    agent = LocalScheduler(params.machine, config, topology=topology)
    cohosted = build_vm_population(agent, params.levels, params, rng)
    per_level = {
        lv.name: [vm for vm in cohosted if vm.level == lv] for lv in params.levels
    }
    members = {
        m.vm.vm_id: m for vms in per_level.values() for m in _members(vms, rng)
    }
    groups = _vnode_groups(agent, topology, members, params, rng)
    trackers = _measure(groups, pm_capacity, params, rng)
    slackvm = {
        level.name: _collect("slackvm", level, per_level[level.name], trackers)
        for level in params.levels
        if per_level[level.name]  # exactly the levels with a vNode
    }
    return TestbedResult(
        baseline=baseline,
        slackvm=slackvm,
        slackvm_vm_counts={name: len(v) for name, v in per_level.items()},
    )


# -- churn ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnParams:
    """Knobs of the churn experiment."""

    __test__ = False  # not a pytest class
    ERROR: ClassVar[type[SimulationError]] = SimulationError

    base: TestbedParams = field(default_factory=TestbedParams)
    #: Mean seconds between churn events (one arrival or departure).
    event_interval: float = bound(0, open_low=True, default=20.0)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class ChurnResult:
    """Outcome of one churn run."""

    median_p90_ms: dict[str, float]
    deploys: int
    removals: int
    pin_changes: int
    max_llc_violations: int
    final_vms: int


def run_churn_testbed(params: ChurnParams | None = None) -> ChurnResult:
    """Run the co-hosted PM under arrival/departure churn."""
    params = params or ChurnParams()
    base = params.base
    rng = np.random.default_rng(base.seed)
    topology = base.machine.build_topology()
    pm_capacity = _capacity(topology, range(topology.num_cpus), base)
    agent = LocalScheduler(
        base.machine, SlackVMConfig(levels=base.levels, pooling=False),
        topology=topology,
    )
    restricted = base.catalog.restricted()

    members: dict[str, GroupMember] = {}  # the alive VMs
    trackers: dict[str, LatencyTracker] = {}
    counter = 0

    def try_deploy(level: OversubscriptionLevel) -> bool:
        nonlocal counter
        vm = _draw_vm(restricted, level, base, rng, counter)
        counter += 1
        if not agent.can_deploy(vm):
            return False
        agent.deploy(vm)
        members[vm.vm_id] = GroupMember.from_request(vm, phase=float(rng.uniform()))
        if vm.usage_kind == "interactive":
            trackers[vm.vm_id] = LatencyTracker(base.latency, vm.vm_id, vm.spec.vcpus, rng)
        return True

    # Warm fill: round-robin levels until WARM_FILL of the CPUs is reserved.
    target_cpus = WARM_FILL * base.machine.cpus
    while agent.allocated_cpus < target_cpus:
        level = base.levels[counter % len(base.levels)]
        if not try_deploy(level):
            break

    deploys = removals = 0
    max_violations = 0
    next_event = rng.exponential(params.event_interval)
    groups: list[ContentionGroup] = []
    dirty = True  # groups must be rebuilt after membership changes
    for t in np.arange(0.0, base.duration, base.dt):
        # Churn events between ticks.
        while next_event <= t:
            next_event += rng.exponential(params.event_interval)
            if members and rng.uniform() < 0.5:
                victim = sorted(members)[int(rng.integers(len(members)))]
                agent.remove(victim)
                members.pop(victim)
                trackers.pop(victim, None)
                removals += 1
                dirty = True
            else:
                level = base.levels[int(rng.integers(len(base.levels)))]
                if try_deploy(level):
                    deploys += 1
                    dirty = True
        if dirty:
            groups = _vnode_groups(agent, topology, members, base, rng)
            max_violations = max(max_violations, shared_llc_violations(agent))
            dirty = False
        _tick(float(t), groups, pm_capacity, trackers, base.dt)

    medians: dict[str, float] = {}
    for level in base.levels:
        p90s = [
            tr.window_p90s()
            for vm_id, tr in trackers.items()
            if members[vm_id].vm.level == level and tr.samples
        ]
        if p90s:
            medians[level.name] = float(np.median(np.concatenate(p90s))) * 1e3
    return ChurnResult(
        median_p90_ms=medians,
        deploys=deploys,
        removals=removals,
        pin_changes=agent.pin_generation,
        max_llc_violations=max_violations,
        final_vms=agent.num_vms,
    )
