"""Canonical serialization of simulation results, for conformance tests.

The golden decision-record corpus (``tests/fixtures/golden/*.jsonl``)
locks *recorded* runs byte-for-byte — but a recorded run computes the
full per-host tables for every arrival instead of calling
``VectorCluster.select``, so those fixtures never execute the
shape-cache selection code at all.  The
scale-tier fixtures (``tests/fixtures/golden/scale/``) close that gap:
they freeze the **result stream** of an unrecorded run — every
placement decision in arrival order, the rejection list, and a digest
of the full allocation timeline — in a canonical text form that any
kernel must reproduce byte-for-byte.

:func:`result_stream` is deliberately exact, not approximate:
placements carry the float ``hosted_ratio`` through ``repr``-faithful
JSON, and the timeline (three float64 arrays, one sample per event) is
folded into a SHA-256 over its raw little-endian bytes, so a single
ULP of drift anywhere in the run changes the stream.  At 5000 hosts a
full decision-record trace would be tens of megabytes; the result
stream is a few kilobytes and pins the same arithmetic.
"""

from __future__ import annotations

import hashlib

from repro.core.spec import canonical_json
from repro.simulator.engine import SimulationResult

__all__ = ["result_stream"]


def result_stream(result: SimulationResult) -> str:
    """Canonical text form of a :class:`SimulationResult`.

    One compact JSON line per placement, in placement order (dict
    insertion order — the arrival order of admitted VMs), followed by
    one summary line carrying the rejections, the aggregate counters
    and the timeline digest.  Equal streams ⇔ bit-identical decisions,
    pooling verdicts and per-event allocation trajectories.
    """
    lines = [
        canonical_json(
            {
                "vm": vm_id,
                "host": rec.host,
                "ratio": rec.hosted_ratio,
                "pooled": rec.pooled,
            }
        )
        for vm_id, rec in result.placements.items()
    ]
    times, cpu, mem = result.timeline.as_arrays()
    digest = hashlib.sha256(
        times.tobytes() + cpu.tobytes() + mem.tobytes()
    ).hexdigest()
    lines.append(
        canonical_json(
            {
                "summary": {
                    "num_hosts": result.num_hosts,
                    "placed": len(result.placements),
                    "rejections": list(result.rejections),
                    "pooled_placements": result.pooled_placements,
                    "timeline_samples": int(times.shape[0]),
                    "timeline_sha256": digest,
                }
            }
        )
    )
    return "\n".join(lines) + "\n"
