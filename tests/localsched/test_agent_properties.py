"""Property tests of the local scheduler (object path).

The vectorized engine has its own invariant suite; these properties pin
the reference implementation independently, including topology mode.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec, build_topology
from repro.localsched import LocalScheduler


@st.composite
def operations(draw):
    """A random interleaving of deploys and removes."""
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    alive = []
    for i in range(n):
        if alive and draw(st.booleans()) and draw(st.booleans()):
            victim = draw(st.sampled_from(alive))
            alive.remove(victim)
            ops.append(("remove", victim))
        else:
            vm_id = f"vm-{i:03d}"
            ops.append(
                (
                    "deploy",
                    VMRequest(
                        vm_id=vm_id,
                        spec=VMSpec(
                            draw(st.sampled_from([1, 2, 3, 4, 8])),
                            float(draw(st.sampled_from([1, 2, 4, 8, 16]))),
                        ),
                        level=OversubscriptionLevel(
                            draw(st.sampled_from([1.0, 2.0, 3.0]))
                        ),
                    ),
                )
            )
            alive.append(vm_id)
    return ops


def check_agent_invariants(agent: LocalScheduler):
    assert 0 <= agent.allocated_cpus <= agent.machine.cpus
    assert -1e-9 <= agent.allocated_mem <= agent.machine.mem_gb + 1e-9
    total_cpus = 0
    seen_cpus: set[int] = set()
    for node in agent.vnodes:
        # Guarantee: exposed vCPUs never exceed ratio * owned CPUs.
        assert node.allocated_vcpus <= node.capacity_vcpus + 1e-9
        # Minimal sizing: never one CPU more than needed.
        assert node.num_cpus == node.cpus_required()
        # CPU sets are mutually exclusive.
        overlap = seen_cpus & set(node.cpu_ids)
        assert not overlap
        seen_cpus.update(node.cpu_ids)
        total_cpus += node.num_cpus
    assert total_cpus == agent.allocated_cpus


@settings(max_examples=80, deadline=None)
@given(ops=operations(), pooling=st.booleans())
def test_agent_invariants_accounting_mode(ops, pooling):
    agent = LocalScheduler(MachineSpec("pm", 16, 64.0), SlackVMConfig(pooling=pooling))
    _run_ops(agent, ops)


@settings(max_examples=40, deadline=None)
@given(ops=operations(), aware=st.booleans())
def test_agent_invariants_topology_mode(ops, aware):
    topo = build_topology(sockets=2, cores_per_socket=4, smt=2, llc_group=2)
    agent = LocalScheduler(
        MachineSpec("pm", 16, 64.0),
        SlackVMConfig(topology_aware=aware),
        topology=topo,
    )
    _run_ops(agent, ops)


def _run_ops(agent: LocalScheduler, ops):
    placed = set()
    for kind, payload in ops:
        if kind == "deploy":
            if agent.can_deploy(payload):
                agent.deploy(payload)
                placed.add(payload.vm_id)
        else:
            if payload in placed:
                agent.remove(payload)
                placed.discard(payload)
        check_agent_invariants(agent)
    # Drain everything: the agent must return to pristine state.
    for vm_id in list(placed):
        agent.remove(vm_id)
    assert agent.num_vms == 0
    assert agent.allocated_cpus == 0
    assert agent.allocated_mem == 0.0
    assert agent.vnodes == ()


@settings(max_examples=40, deadline=None)
@given(ops=operations())
def test_plan_never_lies(ops):
    """If plan() returns a DeployPlan, deploy() must succeed."""
    agent = LocalScheduler(MachineSpec("pm", 16, 64.0), SlackVMConfig())
    for kind, payload in ops:
        if kind != "deploy":
            continue
        plan = agent.plan(payload)
        if plan is not None:
            placement = agent.deploy(payload)
            assert placement.pooled == plan.pooled
            assert placement.hosted_level.ratio == plan.hosted_ratio
