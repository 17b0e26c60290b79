"""RunSpec: validation, round-trip, builders, run()."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    AUTO_SIZE_HEADROOM,
    RunSpec,
    SweepSpec,
    build_config,
    build_machines,
    build_simulation,
    build_workload,
    run,
)
from repro.core.errors import ConfigError, RunnerError
from repro.serving import ServiceSpec
from repro.sharding import ShardedSimulation, ShardPlan
from repro.simulator import Simulation, result_stream
from repro.workload.distributions import DISTRIBUTIONS


class TestValidation:
    def test_defaults_are_valid(self):
        spec = RunSpec()
        assert spec.engine == "vector" and spec.shards == 1

    def test_mix_letter_normalizes_to_upper(self):
        assert RunSpec(mix="f").mix == "F"
        assert RunSpec(mix="f").mix_tuple == DISTRIBUTIONS["F"]
        assert RunSpec(mix="F").mix_label == "F"

    def test_mix_triple_normalizes_ints_to_floats(self):
        a = RunSpec(mix=(40, 30, 30))
        b = RunSpec(mix=(40.0, 30.0, 30.0))
        assert a.mix == b.mix == (40.0, 30.0, 30.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.mix_label == "40,30,30"

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(mix="Z"), "unknown mix"),
            (dict(mix=(50.0, 50.0)), "3 shares"),
            (dict(provider="nope"), "unknown provider"),
            (dict(target_population=0), "target_population"),
            (dict(num_hosts=-1), "num_hosts"),
            (dict(host_cpus=0), "host_cpus"),
            (dict(policy="nope"), "unknown policy"),
            (dict(host_mem_gb=0.0), "host_mem_gb"),
            (dict(engine="nope"), "unknown engine"),
            (dict(oversub="nope"), "unknown oversub"),
            (dict(oversub_update_every=0.0), "update_every"),
            (dict(shards=0), "shards"),
            (dict(router="nope"), "unknown router"),
            (dict(workers=-1), "workers"),
            (dict(num_hosts=2, shards=4), "cannot split"),
            (dict(engine="object", shards=2), "object engine"),
            (dict(shards=2, fail_fast=True), "fail_fast"),
            (dict(shards=2, oversub="percentile"), "oversubscription"),
            # NaN passes a `<= 0` guard and an infinite period never
            # fires: either would build a controller that never updates.
            # Non-finite host sizes must fail here, before any work.
            (dict(oversub_update_every=float("nan")), "update_every"),
            (dict(oversub_update_every=float("inf")), "update_every"),
            (dict(host_cpus=float("nan")), "host_cpus"),
            (dict(host_mem_gb=float("nan")), "finite"),
            (dict(host_mem_gb=float("inf")), "finite"),
            # Only the vector engine models dynamic oversubscription.
            (dict(engine="object", oversub="percentile"), "oversub"),
        ],
    )
    def test_bad_knobs_fail_at_construction(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RunSpec(**kwargs)


#: Values an integer field refuses (bools, fractions, non-finite, below
#: its floor) and a bool field refuses (anything not a bool), unless
#: ``(spec, field, value)`` is in ACCEPTED.
INT_PROBES = (True, 2.5, float("nan"), float("inf"), -1, 0)
BOOL_PROBES = (1, 0, "yes", None)
ACCEPTED = {
    ("RunSpec", "seed", 0),
    ("RunSpec", "num_hosts", 0),  # auto-size
    ("RunSpec", "workers", 0),  # one per shard
    ("SweepSpec", "root_seed", 0),
    ("SweepSpec", "seeds", (0,)),
}
#: Grid knobs that live on the sweep's ``base`` RunSpec, by grid name:
#: a bad value must fail the SweepSpec (as RunnerError), not only a
#: RunSpec built on its own.
SWEEP_BASE_KNOBS = {
    "machine_cpus": "host_cpus",
    "pooling": "pooling",
    "shards": "shards",
    "target_population": "target_population",
}
FIELD_CASES = [
    (cls, f.name, probe if f.type != "Optional[tuple[int, ...]]" else (probe,))
    for cls in (RunSpec, SweepSpec)
    for f in dataclasses.fields(cls)
    if f.init and f.type in ("int", "bool", "Optional[tuple[int, ...]]")
    for probe in (BOOL_PROBES if f.type == "bool" else INT_PROBES)
] + [
    (SweepSpec, knob, probe)
    for knob, name in SWEEP_BASE_KNOBS.items()
    for probe in (BOOL_PROBES if name == "pooling" else INT_PROBES)
]


@pytest.mark.parametrize(("cls", "name", "value"), FIELD_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in FIELD_CASES])
def test_integer_and_bool_fields_refuse_other_values(cls, name, value):
    if cls is SweepSpec and name in SWEEP_BASE_KNOBS:
        with pytest.raises(RunnerError, match="base"):
            SweepSpec(base={SWEEP_BASE_KNOBS[name]: value})
        return
    if (cls.__name__, name, value) in ACCEPTED:
        assert getattr(cls(**{name: value}), name) == value
        return
    with pytest.raises(cls.ERROR):
        cls(**{name: value})


class TestSerialization:
    def test_round_trips_through_dict(self):
        spec = RunSpec(
            provider="ovhcloud", mix=(40, 30, 30), target_population=80,
            seed=9, num_hosts=8, policy="best_fit", shards=2, workers=2,
        )
        data = spec.to_dict()
        assert data["version"] == 2
        assert data["mix"] == [40.0, 30.0, 30.0]  # JSON-primitive form
        clone = RunSpec.from_dict(data)
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_fingerprints_are_pinned(self):
        # Literals, not round trips: the wire form must not move by a byte.
        assert RunSpec().fingerprint() == "5412b9d5ed6135c2"
        assert RunSpec(mix=(50, 0, 50)).fingerprint() == "be76dcc00316d9e6"

    def test_numpy_integers_fingerprint_like_python_ints(self):
        # They used to reach canonical_json unconverted: "Object of type
        # int64 is not JSON serializable".
        assert RunSpec(seed=np.int64(3)).fingerprint() == RunSpec(seed=3).fingerprint()
        assert (SweepSpec(seeds=(np.int64(1),)).fingerprint()
                == SweepSpec(seeds=(1,)).fingerprint())
        assert ServiceSpec(seed=np.int64(3)).fingerprint() == ServiceSpec(seed=3).fingerprint()

    def test_fingerprint_keys_every_field(self):
        base = RunSpec()
        assert base.fingerprint() != base.replace(seed=1).fingerprint()
        assert base.fingerprint() != base.replace(policy="best_fit").fingerprint()
        assert base.fingerprint() == RunSpec().fingerprint()

    def test_from_dict_refuses_unknown_fields_and_versions(self):
        with pytest.raises(ConfigError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"seeed": 3})
        with pytest.raises(ConfigError, match="version 99"):
            RunSpec.from_dict({"version": 99})
        # v1 carried the kernel; the naive reference is an engine argument.
        with pytest.raises(ConfigError, match="version 1"):
            RunSpec.from_dict({"version": 1})
        with pytest.raises(ConfigError, match=r"unknown RunSpec fields: \['kernel'\]"):
            RunSpec.from_dict({"kernel": "naive"})

    def test_replace_revalidates(self):
        spec = RunSpec(num_hosts=8)
        with pytest.raises(ConfigError, match="cannot split"):
            spec.replace(shards=16)

    @pytest.mark.parametrize(
        ("spec", "error"),
        [
            (RunSpec(), ConfigError),
            (ServiceSpec(), ConfigError),
            (SweepSpec(), RunnerError),
            (ShardPlan(10, 3), ConfigError),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, type) else "",
    )
    def test_every_spec_type_shares_the_from_dict_contract(self, spec, error):
        cls = type(spec)
        assert cls.from_dict(spec.to_dict()) == spec
        with pytest.raises(error, match=f"unknown {cls.__name__} fields"):
            cls.from_dict({**spec.to_dict(), "bogus": 1})
        with pytest.raises(error, match="version|unknown"):
            cls.from_dict({**spec.to_dict(), "version": 99})


class TestBuilders:
    def test_workload_is_pure_in_the_spec(self):
        spec = RunSpec(target_population=50, seed=4)
        one, two = build_workload(spec), build_workload(spec)
        assert [vm.vm_id for vm in one] == [vm.vm_id for vm in two]
        assert len(one) > 0

    def test_machines_honor_explicit_count(self):
        machines = build_machines(RunSpec(num_hosts=7))
        assert len(machines) == 7
        assert machines[0].cpus == 32 and machines[0].mem_gb == 128.0

    def test_auto_size_floors_at_the_shard_count(self):
        # A tiny workload demands fewer hosts than the shard count;
        # the floor keeps every shard non-empty.
        spec = RunSpec(target_population=2, shards=8, seed=1)
        assert len(build_machines(spec)) >= 8

    def test_auto_size_applies_headroom(self):
        assert AUTO_SIZE_HEADROOM > 1.0
        spec = RunSpec(target_population=60, seed=2)
        sized = len(build_machines(spec))
        assert sized >= 1

    def test_config_carries_trace_levels_and_pooling(self):
        spec = RunSpec(mix=(40, 30, 30), target_population=60, pooling=False)
        cfg = build_config(spec)
        assert cfg.pooling is False
        assert {lvl.ratio for lvl in cfg.levels} <= {1.0, 2.0, 3.0}

    def test_vector_engine_always_builds_the_dispatcher(self):
        spec = RunSpec(num_hosts=4)
        sim = build_simulation(spec, build_machines(spec))
        assert isinstance(sim, ShardedSimulation)

    def test_object_engine_builds_the_reference_simulation(self):
        spec = RunSpec(engine="object", num_hosts=4)
        sim = build_simulation(spec, build_machines(spec))
        assert isinstance(sim, Simulation)

    def test_object_engine_rejects_heterogeneous_fleets(self):
        from repro.hardware import MachineSpec

        spec = RunSpec(engine="object", num_hosts=2)
        machines = [MachineSpec("a", 16, 64.0), MachineSpec("b", 32, 128.0)]
        with pytest.raises(ConfigError, match="homogeneous"):
            build_simulation(spec, machines)


class TestRun:
    def test_run_is_seed_reproducible(self):
        spec = RunSpec(target_population=40, num_hosts=6, seed=11)
        assert result_stream(run(spec)) == result_stream(run(spec))

    def test_run_accounting_closes(self):
        spec = RunSpec(target_population=40, num_hosts=6, seed=11)
        wl = build_workload(spec)
        result = run(spec)
        assert len(result.placements) + len(result.rejections) == len(wl)

    def test_sharded_spec_runs_end_to_end(self):
        spec = RunSpec(
            target_population=40, num_hosts=6, seed=11, shards=2, workers=1
        )
        result = run(spec)
        wl = build_workload(spec)
        assert len(result.placements) + len(result.rejections) == len(wl)

    def test_run_accepts_an_override_workload(self):
        spec = RunSpec(target_population=40, num_hosts=6, seed=11)
        wl = build_workload(spec)[:10]
        result = run(spec, workload=wl)
        assert len(result.placements) + len(result.rejections) == 10
