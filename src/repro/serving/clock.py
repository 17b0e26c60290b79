"""Virtual time for the serving layer.

The service never touches the wall clock: it reads ``clock.now()`` and
arms timers with ``clock.call_later(dt, fn, arg)`` on an injectable
:class:`VirtualClock`, one heap ordered by ``(deadline, seq)``.  Time
moves only when :meth:`VirtualClock.advance` fires the earliest timer,
so a 30-second-of-virtual-time run completes in milliseconds and its
interleaving is a function of the seed alone.  ``await clock.sleep(dt)``
is a future on the same heap, and :func:`run_virtual` drives an asyncio
loop to quiescence between advances — the contract
``run_virtual(service.run(), service.clock)`` keeps.

This is what keeps :mod:`repro.serving` clean under determinism rule
R001 (no wall-clock reads) and what makes every serving test replayable.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Any, Callable, Coroutine, List, Tuple, TypeVar

from repro.core.errors import ServingError

__all__ = ["VirtualClock", "run_virtual"]

T = TypeVar("T")

#: Drain rounds used only when the running loop does not expose its
#: ready queue (non-CPython loop): each round lets one full callback
#: batch run, and service wake-chains are much shallower than this.
_FALLBACK_DRAIN_ROUNDS = 32


class VirtualClock:
    """A monotonically advancing simulated clock with one timer heap.

    :meth:`call_later` callbacks and :meth:`sleep` futures share one
    heap keyed by ``(deadline, seq)``; :meth:`advance` moves ``now`` to
    the earliest deadline (ties by creation order) and fires that one
    entry.  Sleepers cancelled while parked are skipped silently.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._timers: List[Tuple[float, int, Callable[[Any], None], Any]] = []

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``fn(arg)`` when the clock is advanced to ``now + delay``."""
        if delay < 0:
            raise ServingError(f"cannot wait a negative delay ({delay!r})")
        heapq.heappush(self._timers, (self._now + float(delay), next(self._seq), fn, arg))

    async def sleep(self, delay: float) -> None:
        """Park until the clock is advanced past ``now + delay``."""
        fut: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self.call_later(delay, _wake, fut)
        await fut

    def advance(self) -> bool:
        """Fire the earliest live timer; False when none remain."""
        timers = self._timers
        while timers:
            deadline, _, fn, arg = heapq.heappop(timers)
            if fn is _wake and arg.done():  # a sleeper cancelled while parked
                continue
            if deadline > self._now:
                self._now = deadline
            fn(arg)
            return True
        return False


def _wake(fut: "asyncio.Future[None]") -> None:
    fut.set_result(None)


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
