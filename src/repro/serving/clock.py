"""Virtual time for the asyncio serving layer.

The service's coroutines never touch the wall clock: they read
``clock.now()`` and wait with ``await clock.sleep(dt)`` against an
injectable :class:`VirtualClock`.  :func:`run_virtual` drives an
ordinary asyncio event loop to quiescence, then advances the clock to
the earliest pending deadline — so a 30-second-of-virtual-time service
run completes in milliseconds of real time, and the interleaving of
arrival, departure and timeout coroutines is a deterministic function
of the seed alone (single thread, FIFO ready queue, seq-numbered
sleeper heap).

This is what keeps reprolint R001 clean across :mod:`repro.serving`
and what makes every serving test replayable: simulated time only
moves when the harness says so.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Any, Coroutine, List, Tuple, TypeVar

from repro.core.errors import ServingError

__all__ = ["VirtualClock", "run_virtual"]

T = TypeVar("T")

#: Drain rounds used only when the running loop does not expose its
#: ready queue (non-CPython loop): each round lets one full callback
#: batch run, and service wake-chains are much shallower than this.
_FALLBACK_DRAIN_ROUNDS = 32


class VirtualClock:
    """A monotonically advancing simulated clock with async sleepers.

    ``sleep`` parks the calling coroutine on a future keyed by
    ``(deadline, seq)``; :meth:`advance` wakes exactly one sleeper —
    the earliest deadline, ties broken by creation order — and moves
    ``now`` to its deadline.  Cancelled sleepers (a torn-down departure
    watchdog) are skipped silently.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._seq = itertools.count()
        self._sleepers: List[Tuple[float, int, "asyncio.Future[None]"]] = []

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    async def sleep(self, delay: float) -> None:
        """Park until the clock is advanced past ``now + delay``."""
        if delay < 0:
            raise ServingError(f"cannot sleep a negative delay ({delay!r})")
        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[None]" = loop.create_future()
        heapq.heappush(
            self._sleepers, (self._now + float(delay), next(self._seq), fut)
        )
        await fut

    def advance(self) -> bool:
        """Wake the earliest live sleeper; False when none remain."""
        while self._sleepers:
            deadline, _, fut = heapq.heappop(self._sleepers)
            if fut.done():  # cancelled while parked
                continue
            if deadline > self._now:
                self._now = deadline
            fut.set_result(None)
            return True
        return False


async def _drive(clock: VirtualClock, task: "asyncio.Task[T]") -> None:
    """Alternate between draining the ready queue and advancing time."""
    loop = asyncio.get_running_loop()
    while not task.done():
        await asyncio.sleep(0)
        if task.done():
            break
        # Quiescence check: right after our own turn, a non-empty ready
        # queue means some coroutine is still runnable without any time
        # passing — keep yielding until everyone is parked.  The ready
        # queue is a private attribute but stable across CPython
        # 3.10-3.13; other loops fall back to a bounded drain.
        ready = getattr(loop, "_ready", None)
        if ready is not None:
            if len(ready) > 0:
                continue
        else:  # pragma: no cover - non-CPython event loop
            for _ in range(_FALLBACK_DRAIN_ROUNDS):
                await asyncio.sleep(0)
            if task.done():
                break
        if not clock.advance():
            if task.done():
                break
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            raise ServingError(
                "virtual-time deadlock: every coroutine is blocked and "
                "no sleeper is pending"
            )


def run_virtual(coro: Coroutine[Any, Any, T], clock: VirtualClock) -> T:
    """Run ``coro`` to completion on ``clock``'s virtual timeline.

    Creates a fresh event loop (``asyncio.run``), so each call is an
    isolated, replayable universe.  Raises
    :class:`~repro.core.errors.ServingError` if the coroutine tree
    deadlocks with no virtual sleeper left to wake.
    """

    async def _main() -> T:
        task = asyncio.ensure_future(coro)
        try:
            await _drive(clock, task)
        except BaseException:
            if not task.done():
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            raise
        return task.result()

    return asyncio.run(_main())
