"""The one spec idiom: canonical JSON, its digest, a dataclass base and
the numeric field contract.

Every declarative value in the library — :class:`repro.api.RunSpec`,
:class:`repro.api.SweepSpec`, :class:`repro.serving.ServiceSpec`,
:class:`repro.sharding.ShardPlan` — is a frozen dataclass that
validates in ``__post_init__`` and inherits everything else from
:class:`Spec`: ``to_dict`` / ``from_dict`` round-trip through JSON
primitives, ``fingerprint`` hashes the canonical form, ``replace``
re-validates.

Every int or float field of a validated dataclass (specs, configs,
trace rows, host shapes) declares its range once, with
:func:`bound`, and its ``__post_init__`` calls :func:`check_bounds`,
the one walker over those declarations.  A new spec type is its
bounded fields plus the cross-field rules no single bound can state
(``shards <= num_hosts``, ``arrival < departure``).  Classes that are
not dataclasses check their arguments with :func:`check_int` /
:func:`check_real`, the same rules.

:func:`canonical_json` is the single spelling of the byte form that
fingerprints, checkpoint lines and conformance streams are defined
over; changing it would shift every committed digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import types
import typing
from typing import Any, Callable, ClassVar, Iterable, Mapping, TypeVar, Union

from repro.core.errors import ConfigError, ReproError

__all__ = [
    "Spec",
    "bound",
    "canonical_json",
    "check_bounds",
    "check_fields",
    "check_int",
    "check_real",
    "digest16",
]

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


def _range(low: float, high: float, open_low: bool, open_high: bool) -> str:
    """The bounds as message text: ``" >= 1"``, ``" in [0, 1)"`` or ``""``."""
    if high == math.inf:
        return f" {'>' if open_low else '>='} {low:g}" if low > -math.inf else ""
    if low == -math.inf:
        return f" {'<' if open_high else '<='} {high:g}"
    return f" in {'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"


def _within(value: Any, low: float, high: float, open_low: bool, open_high: bool) -> bool:
    # Comparisons, not negations of them: NaN fails every one.
    return (low < value if open_low else low <= value) and (
        value < high if open_high else value <= high
    )


def check_int(name: str, value: object, low: float = -math.inf, high: float = math.inf, *,
              open_low: bool = False, open_high: bool = False,
              error: type[ReproError] = ConfigError) -> int:
    """``value`` as an ``int`` (a numpy integer converts), or ``error``
    for a bool, a non-integer (``2.5``, NaN, inf) or a value out of bounds."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if _within(value, low, high, open_low, open_high):
            return value
    raise error(f"{name} must be an integer{_range(low, high, open_low, open_high)}, "
                f"got {value!r}")


def check_real(name: str, value: object, low: float = -math.inf, high: float = math.inf, *,
               open_low: bool = False, open_high: bool = False,
               error: type[ReproError] = ConfigError) -> float:
    """``value`` as a ``float``, or ``error`` for a bool, a non-number,
    NaN, an infinity (an infinite bound is always open) or a value out
    of bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    open_low, open_high = open_low or low == -math.inf, open_high or high == math.inf
    if _within(value, low, high, open_low, open_high):
        return value
    rule = _range(low, high, open_low, open_high)
    raise error(f"{name} must be finite{' and' + rule if rule else ''}, got {value!r}")


def bound(low: float = -math.inf, high: float = math.inf, *, open_low: bool = False,
          open_high: bool = False, **field_options: Any) -> Any:
    """A dataclass ``field`` (``field_options``: ``default=`` ...) whose
    int/float value :func:`check_bounds` keeps within ``low``..``high``."""
    return dataclasses.field(
        metadata={"bound": (low, high, open_low or low == -math.inf,
                            open_high or high == math.inf)},
        **field_options,
    )


#: Per class, one ``(name, int|float, optional, low, high, open_low,
#: open_high)`` tuple per bounded field, built on first use.
_BOUNDS: dict[type, tuple[tuple[Any, ...], ...]] = {}


def _declared_bounds(cls: type) -> tuple[tuple[Any, ...], ...]:
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if "bound" in f.metadata:
            kind, optional = hints[f.name], False
            if typing.get_origin(kind) in (Union, types.UnionType):  # float | None
                args = [a for a in typing.get_args(kind) if a is not type(None)]
                kind, optional = args[0] if len(args) == 1 else None, True
            if kind not in (int, float):
                raise TypeError(f"{cls.__name__}.{f.name} is bounded but not int/float")
            out.append((f.name, kind, optional, *f.metadata["bound"]))
    return tuple(out)


def check_bounds(obj: Any) -> None:
    """Check every :func:`bound` field of the dataclass ``obj``.

    Raises the class's ``ERROR`` (default :class:`ConfigError`) for a
    bool, a non-number, NaN or a value out of range; ``None`` passes an
    ``Optional`` field.  An accepted value that is not exactly the
    field's type (a numpy scalar, an ``int`` in a ``float`` field) is
    stored as that type.  Called from ``__post_init__`` only.
    """
    cls = type(obj)
    bounds = _BOUNDS.get(cls)
    if bounds is None:
        bounds = _BOUNDS[cls] = _declared_bounds(cls)
    for name, kind, optional, low, high, open_low, open_high in bounds:
        value = getattr(obj, name)
        # The fast path, _within inlined: most values are exact and in range.
        if type(value) is kind and (low < value if open_low else low <= value) and (
            value < high if open_high else value <= high
        ):
            continue
        if value is None and optional:
            continue
        check = check_int if kind is int else check_real
        object.__setattr__(obj, name, check(
            name, value, low, high, open_low=open_low, open_high=open_high,
            error=getattr(cls, "ERROR", ConfigError)))


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
            if isinstance(value, Spec):  # a nested spec (the sweep's base)
                value = value.to_dict()
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
