"""R013 determinism taint.

Wall-clock-derived values (``time.perf_counter`` and friends) may exist
as telemetry but must never flow into a replayable artifact — a
decision log, checkpoint, or fingerprint digest.
"""

from __future__ import annotations

import textwrap


def src(code: str) -> str:
    return textwrap.dedent(code).lstrip()


# ---------------------------------------------------------------------------
# R013 — determinism taint (wall clock -> replayable artifacts)
# ---------------------------------------------------------------------------


def test_r013_wall_clock_into_decision_log_is_flagged(tree):
    tree.write(
        "src/repro/runner/cell.py",
        src(
            """
            import time


            def run(decision_log):
                started = time.perf_counter()
                wall = time.perf_counter() - started
                decision_log.append({"wall_s": wall})
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R013"]
    assert len(findings) == 1
    assert "flows into decision_log.append" in findings[0].message


def test_r013_taint_flows_through_a_helper_return(tree):
    tree.write(
        "src/repro/runner/cell.py",
        src(
            """
            import time


            def _elapsed(started):
                return time.perf_counter() - started


            def harvest(checkpoint, started):
                record = {"wall": _elapsed(started)}
                checkpoint.append(record)
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R013"]
    assert len(findings) == 1
    assert "(checkpoint)" in findings[0].message


def test_r013_taint_flows_into_a_callee_parameter(tree):
    tree.write(
        "src/repro/sharding/log.py",
        src(
            """
            import time


            def persist(checkpoint, record):
                checkpoint.append(record)


            def run(checkpoint):
                wall = time.perf_counter()
                persist(checkpoint, {"wall": wall})
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R013"]
    assert len(findings) == 1
    assert "(checkpoint)" in findings[0].message


def test_r013_wall_clock_into_fingerprint_digest_is_flagged(tree):
    tree.write(
        "src/repro/runner/fp.py",
        src(
            """
            import hashlib
            import time


            def fingerprint():
                digest = hashlib.sha256()
                digest.update(str(time.perf_counter()).encode())
                return digest.hexdigest()
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R013"]
    assert len(findings) == 1
    assert "fingerprint digest" in findings[0].message


def test_r013_telemetry_outside_replay_artifacts_is_clean(tree):
    tree.write(
        "src/repro/runner/cell.py",
        src(
            """
            import time


            def run(histogram):
                started = time.perf_counter()
                wall = time.perf_counter() - started
                histogram.observe(wall)
                return {"wall_s": wall}
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r013_accepts_a_justified_pragma(tree):
    tree.write(
        "src/repro/runner/cell.py",
        src(
            """
            import time


            def run(checkpoint):
                wall = time.perf_counter()
                # wall_s is operator telemetry; replay never reads it.
                checkpoint.append({"wall_s": wall})  # reprolint: disable=R013
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r013_only_applies_to_decision_packages(tree):
    tree.write(
        "src/repro/core/cell.py",
        src(
            """
            import time


            def run(decision_log):
                decision_log.append({"wall": time.perf_counter()})
            """
        ),
    )
    assert "R013" not in tree.rule_ids()
