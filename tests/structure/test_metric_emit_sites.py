"""One metric registry: every emit site in ``src/repro`` names its metric
through ``repro.obs.names``."""

from __future__ import annotations

import ast

from repro.obs import names

KINDS = ("counter", "gauge", "histogram", "timer")


def test_metrics_are_emitted_through_the_registry(src_tree):
    registered, unknown, inline = set(), set(), []
    for module, tree in src_tree.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "metric_names"
            ):
                registered.add(module)
                if getattr(names, node.attr, None) not in names.ALL_METRIC_NAMES:
                    unknown.add(f"{module}: metric_names.{node.attr}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
                and "metrics" in ast.unparse(node.func.value).lower()
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                inline.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert (unknown, inline) == (set(), [])
    # The one event loop is the only emitter of the ``engine.*`` series.
    assert "simulator/engine.py" in registered
