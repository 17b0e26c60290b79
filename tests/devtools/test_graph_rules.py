"""Graph rules: R009 import layering, R010 async safety, R011 single-writer.

Each test writes a small ``src/repro/...`` tree and asserts on the
whole-program pass — good fixtures lint clean, bad fixtures produce
exactly the expected finding.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.devtools.graphs import ARCH_LAYERS


def src(code: str) -> str:
    return textwrap.dedent(code).lstrip()


# ---------------------------------------------------------------------------
# R009 — import layering
# ---------------------------------------------------------------------------


def test_r009_downward_import_is_clean(tree):
    tree.write("src/repro/core/thing.py", "X = 1\n")
    tree.write("src/repro/api/surface.py", "import repro.core.thing\n")
    assert tree.rule_ids() == []


def test_r009_upward_import_is_flagged(tree):
    tree.write("src/repro/core/thing.py", "import repro.api.surface\n")
    tree.write("src/repro/api/surface.py", "X = 1\n")
    findings = [f for f in tree.lint() if f.rule_id == "R009"]
    assert len(findings) == 1
    f = findings[0]
    assert f.path == "src/repro/core/thing.py"
    assert "upward import repro.core.thing -> repro.api.surface" in f.message
    assert f.line == 1


def test_r009_same_rank_cross_package_import_is_flagged(tree):
    # scheduling and perfmodel share the policy layer: neither may
    # import the other at module level.
    tree.write("src/repro/scheduling/pol.py", "import repro.perfmodel.band\n")
    tree.write("src/repro/perfmodel/band.py", "X = 1\n")
    findings = [f for f in tree.lint() if f.rule_id == "R009"]
    assert len(findings) == 1
    assert "same-rank import" in findings[0].message


def test_r009_type_checking_guard_is_exempt(tree):
    tree.write(
        "src/repro/core/thing.py",
        src(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import repro.api.surface
            """
        ),
    )
    tree.write("src/repro/api/surface.py", "X = 1\n")
    assert tree.rule_ids() == []


def test_r009_function_scoped_import_is_exempt(tree):
    tree.write(
        "src/repro/core/thing.py",
        src(
            """
            def late_bound():
                import repro.api.surface
                return repro.api.surface
            """
        ),
    )
    tree.write("src/repro/api/surface.py", "X = 1\n")
    assert tree.rule_ids() == []


def test_r009_same_package_cycle_is_flagged(tree):
    tree.write("src/repro/core/a.py", "import repro.core.b\n")
    tree.write("src/repro/core/b.py", "import repro.core.a\n")
    findings = [f for f in tree.lint() if f.rule_id == "R009"]
    assert len(findings) == 1
    assert "module-level import cycle" in findings[0].message
    assert "repro.core.a" in findings[0].message
    assert "repro.core.b" in findings[0].message


def test_r009_deferred_edge_breaks_a_cycle(tree):
    tree.write("src/repro/core/a.py", "import repro.core.b\n")
    tree.write(
        "src/repro/core/b.py",
        src(
            """
            def back():
                import repro.core.a
                return repro.core.a
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r009_unknown_package_must_be_placed_in_a_layer(tree):
    tree.write("src/repro/mystery/x.py", "X = 1\n")
    findings = [f for f in tree.lint() if f.rule_id == "R009"]
    assert len(findings) == 1
    assert "'repro.mystery' is not in the architecture DAG" in findings[0].message


def test_arch_layers_name_exactly_the_packages_that_exist():
    # R009 flags a package missing from the DAG; nothing else flags a
    # band entry whose package is gone.
    root = Path(repro.__file__).parent
    on_disk = {p.name for p in root.iterdir() if (p / "__init__.py").is_file()}
    placed = [pkg for _band, pkgs in ARCH_LAYERS for pkg in pkgs]
    assert len(placed) == len(set(placed))
    assert set(placed) == on_disk | {"cli", "__main__"}


def test_deferred_upward_imports_only_shrink():
    # A function-scoped import is R009's sanctioned escape hatch; the
    # ones that point *up* the DAG are the architecture's debts.  Two
    # are left (sweep cells call the api they sit under; the engine
    # wires the oversub pipeline in on demand) — pay one down and
    # shrink this set, never grow it.
    from repro.devtools.graphs import graph_payload, module_rank
    from repro.devtools.lint import build_index

    src_root = Path(repro.__file__).parents[1]
    payload = graph_payload(build_index([src_root], root=src_root.parent))
    upward = {
        (edge["from"], edge["to"])
        for edge in payload["edges"]
        if edge["deferred"]
        and edge["from"].split(".")[:2] != edge["to"].split(".")[:2]
        and None not in (module_rank(edge["from"]), module_rank(edge["to"]))
        and module_rank(edge["to"]) >= module_rank(edge["from"])
    }
    assert upward == {
        ("repro.runner.runner", "repro.api"),
        ("repro.simulator.engine", "repro.oversub.pipeline"),
    }
    assert payload["violations"] == [] and payload["cycles"] == []


# ---------------------------------------------------------------------------
# R010 — async safety in repro.serving
# ---------------------------------------------------------------------------

R010_GOOD = src(
    """
    import asyncio


    class Service:
        def __init__(self, clock):
            self.clock = clock

        async def run(self):
            await self.clock.sleep(1.0)
            await asyncio.sleep(0)
            return self.clock.now()
    """
)

R010_BAD = src(
    """
    import asyncio
    import time


    class Service:
        async def run(self):
            time.sleep(0.1)
            await asyncio.sleep(1.0)
            loop = asyncio.get_event_loop()
            return loop.time()
    """
)


def test_r010_virtual_clock_usage_is_clean(tree):
    tree.write("src/repro/serving/svc.py", R010_GOOD)
    assert tree.rule_ids() == []


def test_r010_blocking_and_bare_sleep_and_loop_time_are_flagged(tree):
    tree.write("src/repro/serving/svc.py", R010_BAD)
    messages = [f.message for f in tree.lint() if f.rule_id == "R010"]
    assert len(messages) == 3
    assert any("blocking call time.sleep()" in m for m in messages)
    assert any("bare asyncio.sleep bypasses VirtualClock" in m for m in messages)
    assert any("loop.time() bypasses VirtualClock" in m for m in messages)


def test_r010_unawaited_coroutine_is_flagged(tree):
    tree.write(
        "src/repro/serving/svc.py",
        src(
            """
            class Service:
                async def _tick(self):
                    return 1

                def kick(self):
                    self._tick()
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R010"]
    assert len(findings) == 1
    assert "coroutine _tick() created but never awaited" in findings[0].message


def test_r010_only_applies_to_serving(tree):
    tree.write("src/repro/core/svc.py", R010_BAD)
    assert "R010" not in tree.rule_ids()


# ---------------------------------------------------------------------------
# R011 — single-writer controller invariant
# ---------------------------------------------------------------------------

R011_GOOD = src(
    """
    class Service:
        def __init__(self, controllers):
            self.controllers = list(controllers)

        async def _scheduler_loop(self):  # reprolint: writer
            self._apply()

        def _apply(self):
            self.controllers[0].request("vm-1")

        def report(self):
            return [c.state() for c in self.controllers]
    """
)

R011_BAD_MUTATION = src(
    """
    class Service:
        def __init__(self, controllers):
            self.controllers = list(controllers)

        async def _scheduler_loop(self):  # reprolint: writer
            self._apply()

        def _apply(self):
            self.controllers[0].request("vm-1")

        async def handle(self, vm):
            self.controllers[0].delete(vm)
    """
)

R011_NO_WRITER = src(
    """
    class Service:
        def __init__(self, controllers):
            self.controllers = list(controllers)

        async def handle(self, vm):
            self.controllers[0].request(vm)
    """
)


def test_r011_annotated_writer_closure_is_clean(tree):
    tree.write("src/repro/serving/svc.py", R011_GOOD)
    assert tree.rule_ids() == []


def test_r011_mutation_outside_writer_closure_is_flagged(tree):
    tree.write("src/repro/serving/svc.py", R011_BAD_MUTATION)
    findings = [f for f in tree.lint() if f.rule_id == "R011"]
    assert len(findings) == 1
    f = findings[0]
    assert "Service.handle calls controller.delete()" in f.message
    assert "outside the single-writer scheduler closure" in f.message


def test_r011_mutating_class_without_annotation_is_flagged(tree):
    tree.write("src/repro/serving/svc.py", R011_NO_WRITER)
    findings = [f for f in tree.lint() if f.rule_id == "R011"]
    assert len(findings) == 1
    assert "no method is annotated `# reprolint: writer`" in findings[0].message


def test_r011_init_only_mutation_needs_no_annotation(tree):
    # __init__ builds the fleet before any task exists: setup-phase
    # writes alone don't require a writer annotation.
    tree.write(
        "src/repro/serving/svc.py",
        src(
            """
            class Service:
                def __init__(self, controllers):
                    self.controllers = list(controllers)
                    self.controllers[0].request("warmup")

                def report(self):
                    return [c.state() for c in self.controllers]
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r011_readonly_iteration_in_comprehension_is_clean(tree):
    tree.write(
        "src/repro/serving/svc.py",
        src(
            """
            class Service:
                def __init__(self, controllers):
                    self.controllers = list(controllers)

                def tickets(self):
                    return [c.ticket() for c in self.controllers]
            """
        ),
    )
    assert tree.rule_ids() == []


def test_r011_mutating_comprehension_alias_is_flagged(tree):
    tree.write(
        "src/repro/serving/svc.py",
        src(
            """
            class Service:
                def __init__(self, controllers):
                    self.controllers = list(controllers)

                def drain(self):
                    return [c.delete("vm") for c in self.controllers]
            """
        ),
    )
    findings = [f for f in tree.lint() if f.rule_id == "R011"]
    assert len(findings) == 1
    assert "no method is annotated" in findings[0].message


def test_r011_only_applies_to_serving(tree):
    tree.write("src/repro/core/svc.py", R011_NO_WRITER)
    assert "R011" not in tree.rule_ids()
