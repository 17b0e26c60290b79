"""Workload trace (de)serialization.

Traces are stored as JSON Lines — one VM lifecycle per line — so large
workloads stream without loading everything twice, and generated
workloads can be shared between the examples, benches and external
tools.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.errors import ReproError, WorkloadError
from repro.core.spec import check_fields
from repro.core.types import OversubscriptionLevel, VMRequest, VMSpec

__all__ = ["vm_to_dict", "vm_from_dict", "save_trace", "load_trace", "iter_trace"]

#: The keys :func:`vm_to_dict` writes; the first five are required.
_FIELDS = ("vm_id", "vcpus", "mem_gb", "ratio", "arrival",
           "departure", "usage_kind", "usage_param")
_REQUIRED = set(_FIELDS[:5])
#: The keys ``float()`` reads: it would take a JSON ``true`` as 1.0.
_REAL_FIELDS = ("mem_gb", "ratio", "arrival", "departure", "usage_param")


def vm_to_dict(vm: VMRequest) -> dict:
    return {
        "vm_id": vm.vm_id,
        "vcpus": vm.spec.vcpus,
        "mem_gb": vm.spec.mem_gb,
        "ratio": vm.level.ratio,
        "arrival": vm.arrival,
        "departure": vm.departure,
        "usage_kind": vm.usage_kind,
        "usage_param": vm.usage_param,
    }


def vm_from_dict(row: dict) -> VMRequest:
    """The inverse of :func:`vm_to_dict`.

    A row that is not a mapping, carries a key :func:`vm_to_dict` does
    not write, lacks a required one, has a fractional ``vcpus`` or a
    bool in a numeric field is a :class:`WorkloadError`.
    """
    check_fields(row, _FIELDS, "trace row", WorkloadError)
    missing = _REQUIRED - row.keys()
    if missing:
        raise WorkloadError(f"trace row missing fields {sorted(missing)}: {row}")
    vcpus = row["vcpus"]
    if isinstance(vcpus, bool) or not (
        isinstance(vcpus, numbers.Integral) or isinstance(vcpus, float) and vcpus.is_integer()
    ):
        raise WorkloadError(f"trace row vcpus must be a whole number, got {vcpus!r}")
    for key in _REAL_FIELDS:
        if isinstance(row.get(key), bool):
            raise WorkloadError(f"trace row {key} must be a number, got {row[key]!r}")
    return VMRequest(
        vm_id=str(row["vm_id"]),
        spec=VMSpec(vcpus=int(vcpus), mem_gb=float(row["mem_gb"])),
        level=OversubscriptionLevel(float(row["ratio"])),
        arrival=float(row["arrival"]),
        departure=None if row.get("departure") is None else float(row["departure"]),
        usage_kind=str(row.get("usage_kind", "stress")),
        usage_param=float(row.get("usage_param", 0.5)),
    )


def save_trace(workload: Sequence[VMRequest], path: str | Path) -> None:
    """Write a trace as JSON Lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for vm in workload:
            fh.write(json.dumps(vm_to_dict(vm)) + "\n")


def iter_trace(path: str | Path) -> Iterator[VMRequest]:
    """Stream VM requests from a JSON Lines trace.

    A bad row raises with its ``<path>:<lineno>`` location: a
    :class:`ReproError` keeps its type, anything else ``float()`` or
    ``json`` raises (``"mem_gb": "abc"``, ``"ratio": null``, a
    malformed line) becomes a :class:`WorkloadError`.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                vm = vm_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except ReproError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            except (ValueError, TypeError, OverflowError) as exc:
                raise WorkloadError(f"{path}:{lineno}: {exc}") from exc
            yield vm


def load_trace(path: str | Path) -> list[VMRequest]:
    return list(iter_trace(path))
