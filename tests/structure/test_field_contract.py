"""The field contract: every int/float field of a validated dataclass
declares its range once, with :func:`repro.core.spec.bound`, and
:func:`repro.core.spec.check_bounds` refuses whatever falls outside it.

The classes are discovered, not listed: every dataclass under ``repro``
that has a ``__post_init__`` (its own or inherited) or is a
:class:`~repro.core.spec.Spec`.  An ``int``/``float`` init field (or
its ``Optional``) with no declared bound fails the first test; the
second feeds every declared bound NaN, ±inf, a bool, ``None``, a
string, ``2.5`` for an int field and the values just past each finite
end, and expects the class's ``ERROR`` naming the field.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import types
import typing

import numpy as np
import pytest

import repro
from repro.api import RunSpec
from repro.core.errors import ConfigError
from repro.core.spec import Spec
from repro.core.types import LEVEL_1_1, VMSpec
from repro.oversub.estimators import StaticRatio
from repro.oversub.monitor import ClusterUsageMonitor
from repro.workload.catalog import AZURE

#: Minimal valid arguments of the classes with required fields; every
#: other field keeps its default.
REQUIRED: dict[str, dict[str, object]] = {
    "VMSpec": dict(vcpus=1, mem_gb=1.0),
    "VMRequest": dict(vm_id="vm", spec=VMSpec(1, 1.0), level=LEVEL_1_1),
    "OversubscriptionLevel": dict(ratio=1.0),
    "MachineSpec": dict(name="pm", cpus=1, mem_gb=1.0),
    "HostFailure": dict(time=0.0, host=0),
    "ShardPlan": dict(num_hosts=4, shards=2, router="hash", seed=0,
                      policy="progress", kernel="incremental"),
    "RVConfig": dict(kind="constant", mean=1.0),
    "DiurnalConfig": dict(amplitude=0.0),
    "CalibrationTarget": dict(mean_vcpus=1.0, mean_mem_gb=1.0),
    "WorkloadParams": dict(catalog=AZURE),
    "OversubParams": dict(estimator=StaticRatio()),
    "OversubController": dict(estimator=StaticRatio(), monitor=ClusterUsageMonitor()),
    "CpuSetCapacity": dict(threads=2, physical=2),
}


def _validated_dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == info.name
                and dataclasses.is_dataclass(obj)
                and (hasattr(obj, "__post_init__") or issubclass(obj, Spec))
            ):
                assert found.setdefault(obj.__qualname__, obj) is obj, obj.__qualname__
    return dict(sorted(found.items()))


CLASSES = _validated_dataclasses()


def _numeric_kind(hint: object) -> type | None:
    """``int``/``float`` for that annotation or its ``Optional``."""
    args: tuple[object, ...] = (hint,)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = tuple(a for a in typing.get_args(hint) if a is not type(None))
    return args[0] if args in ((int,), (float,)) else None


def _numeric_fields(cls: type) -> list[tuple[dataclasses.Field, type, bool]]:
    """``(field, int|float, optional)`` for every numeric init field."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        kind = _numeric_kind(hints[f.name])
        if f.init and kind is not None:
            out.append((f, kind, hints[f.name] is not kind))
    return out


def _outside(kind: type, low: float, high: float, open_low: bool, open_high: bool):
    """The values just past each finite end of a bound."""
    step = (lambda x, to: x + (1 if to > x else -1)) if kind is int else math.nextafter
    if low > -math.inf:
        yield low if open_low else step(low, -math.inf)
    if high < math.inf:
        yield high if open_high else step(high, math.inf)


def test_discovery_finds_the_spec_types():
    assert {"RunSpec", "SweepSpec", "ServiceSpec", "ShardPlan"} <= set(CLASSES)
    assert CLASSES["RunSpec"] is RunSpec


def test_every_numeric_field_declares_a_bound():
    unbounded = [
        f"{name}.{f.name}"
        for name, cls in CLASSES.items()
        for f, _, _ in _numeric_fields(cls)
        if "bound" not in f.metadata
    ]
    assert unbounded == [], "declare these fields with repro.core.spec.bound(...)"


BOUNDED = [name for name, cls in CLASSES.items() if _numeric_fields(cls)]


@pytest.mark.parametrize("name", BOUNDED)
def test_bounds_refuse_out_of_range_values(name):
    cls = CLASSES[name]
    error = getattr(cls, "ERROR", ConfigError)
    base = REQUIRED.get(name, {})
    cls(**base)  # the minimal instance is valid
    accepted = []
    for f, kind, optional in _numeric_fields(cls):
        if "bound" not in f.metadata:
            continue
        probes = [math.nan, math.inf, -math.inf, True, "1", *_outside(kind, *f.metadata["bound"])]
        probes += [2.5] if kind is int else []
        probes += [] if optional else [None]
        for value in probes:
            try:
                cls(**{**base, f.name: value})
            except error as exc:
                assert f.name in str(exc), (f.name, value, str(exc))
            else:
                accepted.append((f.name, value))
    assert accepted == []


@pytest.mark.parametrize("name", BOUNDED)
def test_accepted_numbers_are_stored_as_the_field_type(name):
    """A numpy scalar, or an int in a float field, is stored as the
    field's Python type, so it serializes like the literal would."""
    cls = CLASSES[name]
    base = REQUIRED.get(name, {})
    for f, kind, _ in _numeric_fields(cls):
        value = getattr(cls(**base), f.name)
        if value is None:
            continue
        variants = [np.int64(value)] if kind is int else [np.float64(value)]
        if kind is float and float(value).is_integer():
            variants.append(int(value))
        for variant in variants:
            stored = getattr(cls(**{**base, f.name: variant}), f.name)
            assert type(stored) is kind and stored == value, (f.name, variant)
