"""Project index: the whole-program pass parses every file once into a
:class:`~repro.devtools.index.ProjectIndex` (per-file rule findings +
module summaries the graph rules read).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools.lint import build_index, findings_from_index


def src(code: str) -> str:
    return textwrap.dedent(code).lstrip()


CLEAN = src(
    """
    def place(vm, hosts):
        return sorted(hosts)[0]
    """
)

DIRTY = src(
    """
    import time

    def stamp():
        return time.time()
    """
)


def write_tree(root: Path) -> dict[str, Path]:
    files = {
        "src/repro/core/clean.py": CLEAN,
        "src/repro/core/dirty.py": DIRTY,
        "src/repro/scheduling/policy.py": CLEAN,
    }
    out = {}
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        out[rel] = path
    return out


def test_build_parses_every_file(tmp_path):
    write_tree(tmp_path)
    index = build_index([tmp_path / "src"], root=tmp_path)
    assert len(index.summaries) == 3
    assert any(f.rule_id == "R001" for f in findings_from_index(index))
    assert not list(tmp_path.glob("*.json"))  # the linter writes nothing


def test_new_file_joins_cache_incrementally(tmp_path):
    write_tree(tmp_path)
    build_index([tmp_path / "src"], root=tmp_path)

    extra = tmp_path / "src/repro/core/extra.py"
    extra.write_text(DIRTY, encoding="utf-8")
    index = build_index([tmp_path / "src"], root=tmp_path)
    assert len(index.summaries) == 4
    r001 = [f for f in findings_from_index(index) if f.rule_id == "R001"]
    assert {f.path for f in r001} == {
        "src/repro/core/dirty.py",
        "src/repro/core/extra.py",
    }


def test_graph_rules_run_at_full_strength_on_a_warm_cache(tmp_path):
    # An R009 violation lives only in the module summaries.
    write_tree(tmp_path)
    bad = tmp_path / "src/repro/core/upward.py"
    bad.write_text("import repro.scheduling.policy\n", encoding="utf-8")
    index = build_index([tmp_path / "src"], root=tmp_path)
    r009 = [f for f in findings_from_index(index) if f.rule_id == "R009"]
    assert len(r009) == 1
    assert r009[0].path == "src/repro/core/upward.py"
