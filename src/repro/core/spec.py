"""The one spec idiom: canonical JSON, its digest, and a dataclass base.

Every declarative value in the library — :class:`repro.api.RunSpec`,
:class:`repro.runner.SweepSpec`, :class:`repro.serving.ServiceSpec`,
:class:`repro.sharding.ShardPlan` — is a frozen dataclass that
validates in ``__post_init__`` and inherits everything else from
:class:`Spec`: ``to_dict`` / ``from_dict`` round-trip through JSON
primitives, ``fingerprint`` hashes the canonical form, ``replace``
re-validates.  A new spec type is its fields plus its
``__post_init__``.

:func:`canonical_json` is the single spelling of the byte form that
fingerprints, checkpoint lines and conformance streams are defined
over; changing it would shift every committed digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from typing import Any, Callable, ClassVar, Iterable, Mapping, TypeVar

from repro.core.errors import ConfigError, ReproError

__all__ = ["Spec", "canonical_json", "check_fields", "check_int", "digest16"]

_S = TypeVar("_S", bound="Spec")


def canonical_json(obj: Any) -> str:
    """``obj`` as sorted-key, separator-tight JSON (one line, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest16(obj: Any) -> str:
    """The 16-hex fingerprint: sha256 over :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def check_fields(
    data: object,
    allowed: Iterable[str],
    what: str,
    error: type[ReproError] = ConfigError,
) -> None:
    """Refuse a payload that is not a mapping or carries unknown keys."""
    if not isinstance(data, Mapping):
        raise error(f"{what} payload must be a mapping, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise error(f"unknown {what} fields: {unknown}")


def check_int(
    name: str, value: object, low: int, error: type[ReproError] = ConfigError
) -> None:
    """Refuse a bool, a non-integer (``2.5``, NaN, inf) or a value below ``low``.

    An accepted value is not coerced: the spec keeps what it was given,
    so its wire form and fingerprint do not move.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


class Spec:
    """Serialization base for frozen spec dataclasses.

    The wire form is the dataclass's init fields (tuples as lists)
    plus, for versioned types, ``"version"``.  ``VERSIONS`` lists the
    wire versions ``from_dict`` accepts — the last one is what
    ``to_dict`` writes, an empty tuple means the type is unversioned —
    and ``ERROR`` is the exception type a bad payload raises.
    """

    __slots__ = ()

    VERSIONS: ClassVar[tuple[int, ...]] = ()
    ERROR: ClassVar[type[ReproError]] = ConfigError
    #: Subclasses are dataclasses (what ``dataclasses.fields`` needs to know).
    __dataclass_fields__: ClassVar[dict[str, dataclasses.Field[Any]]]

    @classmethod
    def _wire_fields(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls) if f.init)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"version": self.VERSIONS[-1]} if self.VERSIONS else {}
        for name in self._wire_fields():
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls: type[_S], data: Mapping[str, Any]) -> _S:
        allowed = cls._wire_fields()
        if cls.VERSIONS:
            allowed += ("version",)
        check_fields(data, allowed, cls.__name__, cls.ERROR)
        if cls.VERSIONS and data.get("version", cls.VERSIONS[-1]) not in cls.VERSIONS:
            raise cls.ERROR(
                f"{cls.__name__} version {data['version']} is not supported "
                f"(this build speaks {cls.VERSIONS[-1]})"
            )
        build: Callable[..., _S] = cls  # the dataclass __init__, not Spec's
        return build(
            **{
                name: tuple(value) if isinstance(value, list) else value
                for name, value in data.items()
                if name != "version"
            }
        )

    def fingerprint(self) -> str:
        """Content hash of the wire form (detects spec drift on resume)."""
        return digest16(self.to_dict())

    def replace(self: _S, **changes: Any) -> _S:
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
