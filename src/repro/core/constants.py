"""Scoring and admission constants shared across every engine layer.

Both :mod:`repro.scheduling.baselines` (object path) and
:mod:`repro.simulator.vectorpool` (vector path) blend the same score
terms, and both engines apply the same admission slop; the equivalence
and golden-trace suites assert the two engines place identically, so
each value must come from one definition — duplicating them was a
silent-drift hazard.

This module lives in :mod:`repro.core` (import-dependency-free) so
low-level modules like :mod:`repro.localsched.agent` can use the shared
values without pulling in the scheduling package;
:mod:`repro.scheduling.constants` re-exports everything for the
historical import path.
"""

from __future__ import annotations

__all__ = [
    "TIEBREAK_WEIGHT",
    "BESTFIT_BLEND",
    "CAPACITY_EPSILON",
    "FIRST_FIT_CHUNK",
    "floats_equal",
    "floats_differ",
]

#: Weight of the first-fit tiebreak relative to the primary metric.  The
#: primary scores are O(1); host ranks are O(cluster size), so the
#: tiebreak must be scaled far below any meaningful score difference.
TIEBREAK_WEIGHT = 1e-9

#: Weight of the best-fit packing term in the combined policy (§VII-B2):
#: large enough to participate in packing, small enough that strong
#: progress differences still dominate.  The blend adds a unitless fill
#: fraction to a progress score in GB per core, so the combined policy's
#: decisions depend on the memory unit (GB here); every other policy's
#: do not (``tests/simulator/test_metamorphic.py``).
BESTFIT_BLEND = 0.2

#: Absolute slop applied to memory-capacity comparisons in *both*
#: engines (``m / mem_ratio <= free_mem + CAPACITY_EPSILON``).  Must be
#: a single shared value: the engines' admission verdicts are compared
#: bit-for-bit by the golden-trace conformance suite, so a drifted
#: epsilon would silently split their decisions.
CAPACITY_EPSILON = 1e-9

#: Hosts examined per block when the vector engine short-circuits a
#: first-fit scan (it stops at the first block containing a feasible
#: host).  Purely a performance knob: block evaluation is elementwise
#: per host, so any chunk size yields identical placements.
FIRST_FIT_CHUNK = 1024

def floats_equal(a: float, b: float) -> bool:
    """Tolerant float equality: ``|a - b| <= CAPACITY_EPSILON`` (absolute).

    The shared replacement for ``==`` on float-typed scoring/capacity
    expressions in the decision paths (determinism rule R005).  Uses the same
    :data:`CAPACITY_EPSILON` slop as the engines' admission
    comparisons, so "equal" means "the engines could not tell them
    apart".  Also works elementwise on numpy arrays (returns a bool
    array in that case).
    """
    return abs(a - b) <= CAPACITY_EPSILON


def floats_differ(a: float, b: float) -> bool:
    """Tolerant float inequality — scalar negation of :func:`floats_equal`."""
    return not floats_equal(a, b)
