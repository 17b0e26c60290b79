"""Oversubscription-level mixes A–O (paper Figures 3 & 4).

The evaluation sweeps every mix of (1:1, 2:1, 3:1) shares in 25 %
steps — 15 distributions labelled A through O, ordered from least to
most oversubscribed.  The ordering is pinned by the paper's own
statements: A is 100 % 1:1, O is 100 % 3:1, F is 50 % 1:1 + 50 % 3:1,
and A, B, D, G, K are exactly the mixes with no 3:1 VMs.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ConfigError, WorkloadError

__all__ = ["LevelMix", "DISTRIBUTIONS", "normalize_mix", "mix_shares"]

#: Shares of (1:1, 2:1, 3:1) per named distribution, in percent.
LevelMix = tuple[float, float, float]

DISTRIBUTIONS: dict[str, LevelMix] = {
    "A": (100, 0, 0),
    "B": (75, 25, 0),
    "C": (75, 0, 25),
    "D": (50, 50, 0),
    "E": (50, 25, 25),
    "F": (50, 0, 50),
    "G": (25, 75, 0),
    "H": (25, 50, 25),
    "I": (25, 25, 50),
    "J": (25, 0, 75),
    "K": (0, 100, 0),
    "L": (0, 75, 25),
    "M": (0, 50, 50),
    "N": (0, 25, 75),
    "O": (0, 0, 100),
}


def normalize_mix(mix: LevelMix | str) -> LevelMix | str:
    """A spec's ``mix`` field in canonical form: the upper-cased
    distribution letter, or the percent triple as three floats."""
    if isinstance(mix, str):
        if mix.upper() not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown mix {mix!r}; expected a letter "
                f"{'/'.join(DISTRIBUTIONS)} or a percent triple"
            )
        return mix.upper()
    triple = tuple(float(s) for s in mix)
    if len(triple) != 3:
        raise ConfigError(f"mix triple must have 3 shares, got {len(triple)}")
    return triple  # type: ignore[return-value]


def mix_shares(mix: LevelMix | str) -> Mapping[float, float]:
    """Normalize a mix (name or percent triple) to {ratio: share} fractions."""
    if isinstance(mix, str):
        try:
            mix = DISTRIBUTIONS[mix.upper()]
        except KeyError:
            raise WorkloadError(
                f"unknown distribution {mix!r}; expected one of {sorted(DISTRIBUTIONS)}"
            ) from None
    s1, s2, s3 = mix
    total = s1 + s2 + s3
    if total <= 0:
        raise WorkloadError("level shares must sum to a positive value")
    if min(s1, s2, s3) < 0:
        raise WorkloadError("level shares must be non-negative")
    return {1.0: s1 / total, 2.0: s2 / total, 3.0: s3 / total}
