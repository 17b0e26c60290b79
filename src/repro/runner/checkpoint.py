"""The one append-only, fingerprinted JSONL checkpoint.

File layout (one JSON object per line, :func:`canonical_json` form):

* line 1 — header: ``{"kind": "header", "version": 1, "fingerprint":
  ..., <body_key>: {...}}``.  The sweep runner stores its
  :class:`~repro.api.SweepSpec` under ``"spec"``, the shard
  dispatcher its :class:`~repro.sharding.ShardPlan` under ``"plan"``;
* then one record per *completed* unit of work, in completion order,
  flushed as it is appended: killing a run loses at most the in-flight
  units.

The class owns the file discipline only.  It deals in raw record
dicts; which records count as "done" is the caller's business (last
``ok`` cell per key for sweeps, ``ok`` record per shard index for the
dispatcher).  Completion order is nondeterministic under a process
pool, so byte-identity between two runs holds for the *sorted* line
sets, not the raw files.  Floats survive the round trip bit-identically
(``json`` emits ``repr`` and parses it back exactly).

A line counts only if it ends in a newline: a writer killed mid-record
leaves a torn tail, which :meth:`load` ignores and a resuming
:meth:`start` cuts off before appending, so the next record never
lands on the fragment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, TextIO

from repro.core.errors import ReproError
from repro.core.spec import canonical_json

__all__ = ["JsonlCheckpoint"]


class JsonlCheckpoint:
    """One run's JSONL result file (writer + resume loader).

    ``body_key`` names the header field holding the run's description;
    ``error`` is the caller's typed exception (``RunnerError``,
    ``ShardingError``) raised for every refusal.
    """

    def __init__(self, path: str | Path, body_key: str, error: type[ReproError]):
        self.path = Path(path)
        self.body_key = body_key
        self.error = error
        self._fh: Optional[TextIO] = None

    # -- writing -------------------------------------------------------------

    def start(self, fingerprint: str, body: dict, resume: bool = False) -> list[dict]:
        """Open the checkpoint and return the records already in it.

        With ``resume=False`` any existing file is truncated and a
        fresh header written.  With ``resume=True`` an existing file
        must carry ``fingerprint`` (one written for another ``body``
        version is refused by name); its torn tail, if any, is dropped
        and its records returned.  A missing file degrades to a fresh
        start.
        """
        if resume and self.path.exists():
            records, intact = self._scan(fingerprint, body)
            with self.path.open("r+b") as fh:
                fh.truncate(intact)
            self._fh = self.path.open("a", encoding="utf-8")
            return records
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.append(
            {
                "kind": "header",
                "version": 1,
                "fingerprint": fingerprint,
                self.body_key: body,
            }
        )
        return []

    def append(self, record: dict) -> None:
        if self._fh is None:
            raise self.error("checkpoint not started")
        self._fh.write(canonical_json(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading -------------------------------------------------------------

    def load(self, fingerprint: Optional[str] = None) -> list[dict]:
        """Every intact record after the header, in file order.

        When ``fingerprint`` is given the header must match — a
        checkpoint from a different run must not silently satisfy a
        resume.  Blank, unparseable and torn lines are dropped.
        """
        return self._scan(fingerprint)[0]

    def _scan(
        self, fingerprint: Optional[str], body: Optional[dict] = None
    ) -> tuple[list[dict], int]:
        """``(records, byte length of the newline-terminated prefix)``."""
        if not self.path.exists():
            raise self.error(f"no checkpoint at {self.path}")
        header = None
        records: list[dict] = []
        intact = 0
        with self.path.open("rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn tail: a kill mid-write
                intact += len(raw)
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if header is None:
                    if record.get("kind") != "header":
                        raise self.error(
                            f"{self.path} is not a checkpoint (no header)"
                        )
                    header = record
                else:
                    records.append(record)
        if header is None:
            raise self.error(f"{self.path} has no intact header")
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            written = header.get(self.body_key)
            was = written.get("version") if isinstance(written, dict) else None
            if body is not None and was != body.get("version"):
                raise self.error(
                    f"checkpoint {self.path} holds a version {was} {self.body_key}; "
                    f"this build writes version {body.get('version')} and "
                    "cannot resume it"
                )
            raise self.error(
                f"checkpoint {self.path} was written for a different "
                f"{self.body_key} or workload (fingerprint "
                f"{header.get('fingerprint')} != {fingerprint}); "
                "refusing to resume"
            )
        return records, intact
