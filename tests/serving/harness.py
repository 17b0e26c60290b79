"""Deterministic async test harness for the serving suite.

Every serving test runs its coroutines with :func:`run_deterministic`:
a fresh :class:`~repro.serving.clock.VirtualClock` plus the drained
-loop driver from :func:`~repro.serving.clock.run_virtual`.  No test
in this package may call ``asyncio.sleep`` with a non-zero delay or
read wall time — virtual sleeps only, so the whole suite finishes in
milliseconds and every interleaving replays bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Coroutine, Tuple, TypeVar

from repro.serving.clock import VirtualClock, run_virtual

T = TypeVar("T")

__all__ = ["clock_at", "run_deterministic"]


def clock_at(start: float) -> VirtualClock:
    """A fresh clock already advanced to ``start``, no timer pending."""
    clock = VirtualClock()
    clock.call_later(start, lambda _: None)
    clock.advance()
    return clock


def run_deterministic(coro: Coroutine[Any, Any, T]) -> Tuple[T, float]:
    """Run ``coro`` on a fresh virtual clock; return (result, end time)."""
    clock = VirtualClock()
    result = run_virtual(coro, clock)
    return result, clock.now()
