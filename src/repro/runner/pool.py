"""The one process-pool loop, shared by the sweep runner and the shard
dispatcher.

Both callers hand :func:`run_pool` a module-level worker function and a
list of JSON-primitive payload dicts and consume ``(payload, result,
error)`` triples in completion order.  With ``workers <= 1`` (or at
most one payload) the worker runs in-process, lazily, one payload per
``next()`` — the serial path *is* the parallel path minus the pool,
which is what makes the two bit-identical.

Fault model: the workers capture their own exceptions and return them
as records (built with :func:`error_record`).  What they cannot
capture — a worker process killed by the OS, a result that fails to
unpickle — surfaces on the future; it is folded into the same error
dict and yielded with ``result=None``, so a dead worker never escapes
as a raw ``BrokenProcessPool`` and never hangs the loop.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = ["error_record", "run_pool"]


def error_record(exc: BaseException) -> dict[str, str]:
    """The ``{"type", "message", "traceback"}`` dict of a captured fault."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(exc)),
    }


def run_pool(
    fn: Callable[[dict[str, Any]], Any],
    payloads: Sequence[dict[str, Any]],
    workers: int,
) -> Iterator[tuple[dict[str, Any], Any, Optional[dict[str, str]]]]:
    """Yield ``(payload, fn(payload), None)`` per payload, in completion
    order; a pool-level failure yields ``(payload, None, error)``."""
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            yield payload, fn(payload), None
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        futures = {pool.submit(fn, payload): payload for payload in payloads}
        for future in as_completed(futures):
            exc = future.exception()
            if exc is None:
                yield futures[future], future.result(), None
            else:
                yield futures[future], None, error_record(exc)
