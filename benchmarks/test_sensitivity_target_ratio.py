"""Sensitivity — PM hardware M/C ratio vs. SlackVM gains (§III-B).

The paper argues the whole mechanism hinges on where the workload's
per-level M/C ratios sit relative to the *hardware* target ratio: at
2 GB/core every level is memory-bound (no complementarity, nothing to
pool); at 4 GB/core OVHcloud's 1:1 (3.1) and 3:1 (5.8) straddle the
target and complement each other.  This bench sweeps the PM memory
size for distribution F and shows the savings peak where the target
ratio separates the levels.
"""

from conftest import publish
from repro.analysis import format_table
from repro.api import RunSpec, evaluate
from repro.hardware import MachineSpec

SEED = 42
POPULATION = 300
#: PM generations: 32 cores with increasing memory (M/C 2, 3, 4, 6).
MEM_SIZES = (64.0, 96.0, 128.0, 192.0)


def compute():
    out = {}
    for mem in MEM_SIZES:
        machine = MachineSpec(f"pm-{int(mem)}", 32, mem)
        outcome = evaluate(RunSpec(
            provider="ovhcloud", mix="F", host_cpus=machine.cpus,
            host_mem_gb=machine.mem_gb, target_population=POPULATION, seed=SEED,
        ))
        out[machine.target_ratio] = (
            outcome.baseline_pms, outcome.slackvm_pms, outcome.savings_percent
        )
    return out


def test_target_ratio_sensitivity(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_table(
        ["PM M/C (GB/core)", "baseline PMs", "slackvm PMs", "saved (%)"],
        [
            [f"{ratio:g}", base, slack, f"{saving:.1f}"]
            for ratio, (base, slack, saving) in rows.items()
        ],
    )
    publish("sensitivity_target_ratio",
            "Sensitivity — PM target ratio vs SlackVM gains (OVHcloud F)\n" + table)
    # At 2 GB/core both levels are memory-bound (1:1 at 3.1 and 3:1 at
    # 5.8 both exceed 2): no complementarity to harvest.
    assert rows[2.0][2] <= rows[4.0][2]
    # The 4 GB/core point — the paper's configuration — straddles the
    # levels and shows material savings.
    assert rows[4.0][2] >= 4.0
