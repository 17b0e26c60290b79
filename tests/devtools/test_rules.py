"""Good/bad fixture pairs for the reprolint rules R001-R006.

Each test writes a tiny module that either violates exactly one rule
(the *bad* fixture — the rule must fire) or uses the blessed idiom
(the *good* fixture — the rule must stay silent).
"""

from __future__ import annotations

import textwrap

from repro.devtools.rules import DETERMINISM_RULES, RULES, rule_table


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip()


# ---------------------------------------------------------------------------
# R001 — wall clock / entropy
# ---------------------------------------------------------------------------


def test_r001_flags_wall_clock_and_entropy(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import time
            import uuid
            import os

            def stamp():
                return time.time(), uuid.uuid4(), os.urandom(8)
            """
        ),
    )
    assert tree.rule_ids() == ["R001", "R001", "R001"]


def test_r001_resolves_import_aliases(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            from time import time as wall
            from datetime import datetime

            def stamp():
                return wall(), datetime.now()
            """
        ),
    )
    assert tree.rule_ids() == ["R001", "R001"]


def test_r001_allows_perf_counter_and_timing_shim(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """
        ),
    )
    # The obs timing shim module itself may read the wall clock.
    tree.write(
        "src/repro/obs/metrics.py",
        src(
            """
            import time

            def now():
                return time.time()
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r001_flags_monotonic_clocks(tree):
    # monotonic reads are still wall-clock state: a replay on another
    # machine sees different values.
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import time

            def stamp():
                return time.monotonic(), time.monotonic_ns()
            """
        ),
    )
    assert tree.rule_ids() == ["R001", "R001"]


def test_r001_flags_every_secrets_function(tree):
    # The whole secrets module is an entropy source — banned by prefix,
    # not by enumeration.
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import secrets
            from secrets import token_hex

            def ident():
                return token_hex(8), secrets.randbelow(10)
            """
        ),
    )
    assert tree.rule_ids() == ["R001", "R001"]


# ---------------------------------------------------------------------------
# R002 — global RNG
# ---------------------------------------------------------------------------


def test_r002_flags_stdlib_and_numpy_global_rng(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import random
            import numpy as np

            def draw():
                return random.random(), np.random.rand(3), np.random.shuffle([1])
            """
        ),
    )
    assert tree.rule_ids() == ["R002", "R002", "R002"]


def test_r002_allows_explicit_generators(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                ss = np.random.SeedSequence(seed)
                return rng.random(), np.random.PCG64(seed), ss
            """
        ),
    )
    assert tree.rule_ids() == []


# ---------------------------------------------------------------------------
# R003 — unseeded default_rng
# ---------------------------------------------------------------------------


def test_r003_flags_unseeded_default_rng(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            from numpy.random import default_rng

            def draw():
                return default_rng().random()
            """
        ),
    )
    assert tree.rule_ids() == ["R003"]


def test_r003_allows_seeded_default_rng(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()

            def draw_kw(seed):
                return np.random.default_rng(seed=seed).random()
            """
        ),
    )
    assert tree.rule_ids() == []


# ---------------------------------------------------------------------------
# R004 — unordered iteration in decision paths
# ---------------------------------------------------------------------------


def test_r004_flags_set_iteration_in_decision_package(tree):
    tree.write(
        "src/repro/scheduling/pick.py",
        src(
            """
            def pick(hosts):
                seen: set[int] = set()
                for h in seen:
                    yield h
                return [h for h in {1, 2, 3}]
            """
        ),
    )
    assert tree.rule_ids() == ["R004", "R004"]


def test_r004_flags_self_attr_sets_and_keys_and_set_ops(tree):
    tree.write(
        "src/repro/simulator/state.py",
        src(
            """
            class S:
                def __init__(self):
                    self._dirty = set()

                def flush(self, table, other):
                    for j in self._dirty:
                        pass
                    for k in table.keys():
                        pass
                    return list(self._dirty - other)
            """
        ),
    )
    assert tree.rule_ids() == ["R004", "R004", "R004"]


def test_r004_silent_when_sorted_or_outside_decision_packages(tree):
    tree.write(
        "src/repro/simulator/state.py",
        src(
            """
            class S:
                def __init__(self):
                    self._dirty = set()

                def flush(self):
                    for j in sorted(self._dirty):
                        pass
            """
        ),
    )
    # Same hash-order iteration, but in a non-decision package.
    tree.write(
        "src/repro/analysis/report.py",
        src(
            """
            def tags(items):
                return [t for t in set(items)]
            """
        ),
    )
    assert tree.rule_ids() == []


# ---------------------------------------------------------------------------
# R005 — exact float comparison on scoring expressions
# ---------------------------------------------------------------------------


def test_r005_flags_float_equality_on_scores(tree):
    tree.write(
        "src/repro/scheduling/score.py",
        src(
            """
            import math

            def same(score_a, score_b, ratio):
                if score_a == score_b:
                    return True
                return ratio != math.pi
            """
        ),
    )
    assert tree.rule_ids() == ["R005", "R005"]


def test_r005_honours_pragma_and_helpers(tree):
    tree.write(
        "src/repro/scheduling/score.py",
        src(
            """
            from repro.scheduling.constants import floats_equal

            def same(score_a, score_b, ratio, baseline_ratio):
                if floats_equal(score_a, score_b):
                    return True
                return ratio == baseline_ratio  # reprolint: disable=R005
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r005_scoped_to_scheduling_and_simulator(tree):
    tree.write(
        "src/repro/analysis/post.py",
        src(
            """
            def same(score_a, score_b):
                return score_a == score_b
            """
        ),
    )
    assert tree.rule_ids() == []


# ---------------------------------------------------------------------------
# R006 — mutable defaults / frozen-dataclass backdoors
# ---------------------------------------------------------------------------


def test_r006_flags_mutable_defaults_and_setattr_backdoor(tree):
    tree.write(
        "src/repro/runner/cfg.py",
        src(
            """
            def collect(items=[], table={}):
                return items, table

            class Frozen:
                def rewrite(self, value):
                    object.__setattr__(self, "x", value)
            """
        ),
    )
    assert tree.rule_ids() == ["R006", "R006", "R006"]


def test_r006_allows_none_default_and_post_init(tree):
    tree.write(
        "src/repro/runner/cfg.py",
        src(
            """
            def collect(items=None):
                return list(items or [])

            class Frozen:
                def __post_init__(self):
                    object.__setattr__(self, "x", 1)
            """
        ),
    )
    assert tree.rule_ids() == []


# ---------------------------------------------------------------------------
# pragma anchoring on multi-line statements
# ---------------------------------------------------------------------------


def test_pragma_on_first_line_covers_wrapped_statement(tree):
    # Formatters anchor the finding on the continuation line, but the
    # author can only write the pragma on the line black leaves intact:
    # the first line of the statement.
    tree.write(
        "src/repro/scheduling/pol.py",
        src(
            """
            def admits(score):
                flag = bool(  # reprolint: disable=R005
                    score == 1.0,
                )
                return flag
            """
        ),
    )
    assert tree.rule_ids() == []


def test_pragma_on_continuation_line_still_works(tree):
    tree.write(
        "src/repro/scheduling/pol.py",
        src(
            """
            def admits(score):
                flag = bool(
                    score == 1.0,  # reprolint: disable=R005
                )
                return flag
            """
        ),
    )
    assert tree.rule_ids() == []


def test_pragma_on_compound_header_does_not_cover_the_suite(tree):
    # An `if` header pragma must not silence the whole block.
    tree.write(
        "src/repro/scheduling/pol.py",
        src(
            """
            def admits(score):
                if score:  # reprolint: disable=R005
                    return score == 1.0
                return False
            """
        ),
    )
    assert tree.rule_ids() == ["R005"]


# ---------------------------------------------------------------------------
# registry invariants
# ---------------------------------------------------------------------------


def test_rule_registry_is_consistent():
    ids = [r.rule_id for r in RULES]
    # Retired ids (every id after R006 so far) are never reused: pragmas
    # and baselines name ids.
    assert ids == ["R001", "R002", "R003", "R004", "R005", "R006"]
    assert DETERMINISM_RULES == {"R001", "R002", "R003", "R004"}
    assert [row[0] for row in rule_table()] == ids
    assert all(r.hint for r in RULES)


def test_determinism_rules_ignore_pragmas(tree):
    tree.write(
        "src/repro/workload/gen.py",
        src(
            """
            import time

            def stamp():
                return time.time()  # reprolint: disable=R001
            """
        ),
    )
    assert tree.rule_ids() == ["R001"]
