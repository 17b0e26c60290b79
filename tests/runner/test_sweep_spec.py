"""Sweep spec: seed derivation, cell enumeration, serialization."""

import pytest

from repro.api import RunSpec, SweepSpec
from repro.api.sweep import resolve_mix_entry
from repro.core.errors import RunnerError
from repro.runner import derive_seeds
from repro.workload.distributions import DISTRIBUTIONS


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(123, 8)
    b = derive_seeds(123, 8)
    assert a == b
    assert len(set(a)) == 8
    # A prefix of a longer spawn is the same seeds (stable extension).
    assert derive_seeds(123, 3) == a[:3]
    # A different root derives disjoint seeds.
    assert not set(a) & set(derive_seeds(124, 8))


def test_derive_seeds_rejects_negative_count():
    with pytest.raises(RunnerError):
        derive_seeds(0, -1)


def test_resolve_mix_entry_forms():
    assert resolve_mix_entry("F") == ("F", DISTRIBUTIONS["F"])
    assert resolve_mix_entry("f") == ("F", DISTRIBUTIONS["F"])
    assert resolve_mix_entry("50,0,50") == ("50,0,50", (50.0, 0.0, 50.0))
    assert resolve_mix_entry("hot:10,20,70") == ("hot", (10.0, 20.0, 70.0))
    with pytest.raises(RunnerError):
        resolve_mix_entry("not-a-mix")
    with pytest.raises(RunnerError):
        resolve_mix_entry(":50,0,50")


def test_cells_enumeration_order_and_keys():
    spec = SweepSpec(
        base=RunSpec(target_population=50),
        providers=("ovhcloud", "azure"),
        mixes=("A", "F"),
        seeds=(1, 2),
    )
    cells = spec.cells()
    assert len(cells) == len(spec) == 8
    assert [c.index for c in cells] == list(range(8))
    assert cells[0].key == "ovhcloud/A/1"
    assert cells[-1].key == "azure/F/2"
    keys = [c.key for c in cells]
    assert len(set(keys)) == len(keys)
    # Enumeration is stable across calls.
    assert [c.key for c in spec.cells()] == keys


def test_derived_seed_mode_matches_explicit():
    derived = SweepSpec(mixes=("A",), root_seed=9, num_seeds=3)
    explicit = SweepSpec(mixes=("A",), seeds=derive_seeds(9, 3))
    assert derived.effective_seeds() == explicit.effective_seeds()
    assert [c.key for c in derived.cells()] == [c.key for c in explicit.cells()]


def test_spec_roundtrip_and_fingerprint():
    spec = SweepSpec(
        base=RunSpec(target_population=80, policy="first_fit", pooling=False,
                     host_cpus=16, host_mem_gb=64.0),
        providers=("azure",),
        mixes=("A", "hot:50,0,50"),
        root_seed=7,
        num_seeds=2,
        strategies=("static", "doa"),
        scarcity=0.75,
    )
    data = spec.to_dict()
    assert data["base"] == spec.base.to_dict()  # nested, JSON-primitive
    clone = SweepSpec.from_dict(data)
    assert clone == spec and isinstance(clone.base, RunSpec)
    assert clone.fingerprint() == spec.fingerprint()
    other = SweepSpec.from_dict({**data, "root_seed": 8})
    assert other.fingerprint() != spec.fingerprint()
    # A literal, not a round trip: the wire form must not move by a byte.
    assert SweepSpec().fingerprint() == "612ffc68fdc850b6"
    # No v1/v2 payload parses: they carried the run knobs as copies.
    with pytest.raises(RunnerError, match="version 2 is not supported"):
        SweepSpec.from_dict({"version": 2, "providers": ["azure"]})


def test_spec_validation():
    with pytest.raises(RunnerError):
        SweepSpec(providers=())
    with pytest.raises(RunnerError):
        SweepSpec(mixes=())
    with pytest.raises(RunnerError):
        SweepSpec(num_seeds=0)
    with pytest.raises(RunnerError):
        SweepSpec(seeds=())
    with pytest.raises(RunnerError, match="target_population"):
        SweepSpec(base={"target_population": 0})
    with pytest.raises(RunnerError, match="base must be a RunSpec"):
        SweepSpec(base="azure")
    with pytest.raises(RunnerError, match="duplicate mix labels"):
        SweepSpec(mixes=("A", "a"))  # duplicate label after normalization
    # A repeated axis value would run (and report) its cells twice.
    with pytest.raises(RunnerError, match="duplicate seeds"):
        SweepSpec(seeds=(5, 5))
    with pytest.raises(RunnerError, match="duplicate providers"):
        SweepSpec(providers=("azure", "azure"))
    with pytest.raises(RunnerError, match="duplicate strategies"):
        SweepSpec(strategies=("static", "static"))
    with pytest.raises(RunnerError, match="unknown strategy 'oracle'"):
        SweepSpec(strategies=("oracle",))
    # A base neither protocol honours would fail every cell the same way.
    for base in (RunSpec(engine="object"), RunSpec(num_hosts=4),
                 RunSpec(oversub="percentile")):
        with pytest.raises(RunnerError, match="cannot honour base"):
            SweepSpec(base=base)
    with pytest.raises(RunnerError, match="runs unsharded"):
        SweepSpec(base=RunSpec(shards=2), strategies=("static",))
    assert SweepSpec(base=RunSpec(shards=2)).base.shards == 2  # §VII-B shards


@pytest.mark.parametrize("field", ["host_cpus", "host_mem_gb"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_machine_rejected(field, value):
    with pytest.raises(RunnerError, match=field):
        SweepSpec(base={field: value})


@pytest.mark.parametrize(
    "field, value",
    [("policy", "progres"), ("baseline_policy", "firstfit"), ("router", "ring")],
)
def test_unknown_name_is_refused_at_construction(field, value):
    # Refused up front, not by every cell of run_sweep in turn.
    kwargs = {field: value} if field == "baseline_policy" else {"base": {field: value}}
    with pytest.raises(RunnerError, match=repr(value)):
        SweepSpec(**kwargs)
