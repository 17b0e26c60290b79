"""Scoring constants shared by the object and vectorized engines.

The canonical definitions live in :mod:`repro.core.constants` (so that
modules below the scheduling layer can import them without a package
cycle); this module keeps the historical import path alive.  The
tolerance helpers :func:`floats_equal` / :func:`floats_differ` are the
required replacement for ``==`` / ``!=`` on float-typed scoring
expressions (determinism rule R005).
"""

from __future__ import annotations

from repro.core.constants import (
    BESTFIT_BLEND,
    CAPACITY_EPSILON,
    FIRST_FIT_CHUNK,
    TIEBREAK_WEIGHT,
    floats_differ,
    floats_equal,
)

__all__ = [
    "TIEBREAK_WEIGHT",
    "BESTFIT_BLEND",
    "CAPACITY_EPSILON",
    "FIRST_FIT_CHUNK",
    "floats_equal",
    "floats_differ",
]
