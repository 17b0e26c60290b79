"""In-memory spans for the traced round.

Two kinds of span, both rows of one list:

* a *call* span (``Tracer.span``) — one call into a layer, with start
  and end;
* a *class* span (``Tracer.add_class``) — every call of one class made
  under the current span (``vectorpool.select`` x 70 000), accumulated
  by the driver loop with a clock read either side of each call and
  filed once: call count, busy time, first start, last end, and the
  per-call samples' percentiles where the driver kept samples.

Every span carries its parent's id and the workload id.  Times are
``time.perf_counter()`` seconds since the tracer was made; on Linux
that clock is system-wide, so spans recorded in a pool worker line up
with the parent's.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional, Sequence

import numpy as np

class Tracer:
    def __init__(self, workload: str, origin: Optional[float] = None):
        self.workload = workload
        self.origin = perf_counter() if origin is None else origin
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _new(self, name: str, start: float, end: float, **extra) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": start - self.origin,
            "end": end - self.origin,
            **extra,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **extra) -> Iterator[dict]:
        start = perf_counter()
        span = self._new(name, start, start, calls=1, **extra)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = perf_counter() - self.origin
            span["busy_s"] = span["end"] - span["start"]

    def add_class(
        self,
        name: str,
        calls: int,
        busy_s: float,
        first: float,
        last: float,
        samples: Optional[Sequence[float]] = None,
        parent: Optional[int] = None,
        **extra,
    ) -> Optional[dict]:
        """File an accumulated call class under the current span (or
        under ``parent``, the id of the class span its calls ran inside)."""
        if calls == 0:
            return None
        extra.update(calls=calls, busy_s=busy_s, accumulated=True)
        if samples:
            p50, p99 = np.percentile(samples, [50, 99])
            extra["p50_us"] = float(p50) * 1e6
            extra["p99_us"] = float(p99) * 1e6
        span = self._new(name, first, last, **extra)
        if parent is not None:
            span["parent"] = parent
        return span

    def adopt(self, spans: Sequence[dict], **extra) -> None:
        """Attach spans recorded by another tracer (a pool worker, same
        origin) under the current span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            row = dict(span, id=base + span["id"], **extra)
            row["parent"] = parent if span["parent"] is None else base + span["parent"]
            self.spans.append(row)

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> its busy time minus what its children cover.

        Call-span children may overlap (pool workers run side by side),
        so they count by the union of their intervals; class-span
        children ran one after another inside the parent's thread and
        count by their busy time.
        """
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = {}
        for span in self.spans:
            kids = children.get(span["id"], [])
            covered = sum(k["busy_s"] for k in kids if k.get("accumulated"))
            covered += _union([(k["start"], k["end"]) for k in kids
                               if not k.get("accumulated")])
            out[span["id"]] = max(0.0, span["busy_s"] - covered)
        return out

    def busy(self, name: str) -> float:
        return sum(s["busy_s"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(s["calls"] for s in self.spans if s["name"] == name)

    def p_us(self, name: str, key: str) -> float:
        """A class span's stored percentile (``p50_us``/``p99_us``); the
        call-weighted mean where the class was filed more than once."""
        rows = [s for s in self.spans if s["name"] == name and key in s]
        calls = sum(s["calls"] for s in rows)
        return sum(s[key] * s["calls"] for s in rows) / calls if calls else 0.0

    def self_s(self, name: str) -> float:
        own = self.self_times()
        return sum(own[s["id"]] for s in self.spans if s["name"] == name)

    def dump(self, path: str, **header) -> None:
        own = self.self_times()
        rows = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        head = json.dumps({**header, "workload": self.workload}, indent=1)
        with open(path, "w", encoding="utf-8") as fh:
            # One span per line: greppable, and diffs stay readable.
            fh.write(head[:-2] + ',\n "spans": [\n')
            fh.write(",\n".join("  " + json.dumps(r) for r in rows))
            fh.write("\n ]\n}\n")


def _union(intervals: list) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
