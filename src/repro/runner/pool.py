"""The one process-pool loop, shared by the sweep runner and the shard
dispatcher, and the seed derivation both use for their work units.

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

import numpy as np

from repro.core.errors import RunnerError

__all__ = ["derive_seeds", "error_record", "run_pool"]


def derive_seeds(root_seed: int, n: int) -> tuple[int, ...]:
    """``n`` independent integer seeds derived from one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the streams seeded
    by the results are statistically independent of each other and of
    the root.  Each child sequence is collapsed to a 128-bit integer
    (``default_rng`` accepts arbitrary-size ints), keeping derived
    seeds JSON-serializable and printable in cell keys.
    """
    if n < 0:
        raise RunnerError(f"cannot derive {n} seeds")
    root = np.random.SeedSequence(root_seed)
    out = []
    for child in root.spawn(n):
        hi, lo = (int(w) for w in child.generate_state(2, dtype=np.uint64))
        out.append((hi << 64) | lo)
    return tuple(out)


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
