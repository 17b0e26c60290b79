"""One process-pool site: ``runner/pool.py`` builds the only
``ProcessPoolExecutor``, its callers hand ``run_pool`` a module-level
worker, and what they ship survives JSON."""

from __future__ import annotations

import ast
import json

from repro.api import RunSpec, SweepSpec, run, run_sweep
from repro.runner.pool import run_pool


def test_one_executor_site_and_module_level_workers(src_tree, src_calls):
    executors = {
        module for module, _top, name, _call in src_calls if name == "ProcessPoolExecutor"
    }
    workers = {
        (module, ast.unparse(call.args[0]) if call.args else "")
        for module, _top, name, call in src_calls
        if name == "run_pool"
    }
    module_defs = {
        (module, node.name)
        for module, tree in src_tree.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    assert executors == {"runner/pool.py"}
    assert workers == {
        ("api/sweep.py", "_run_cell"),
        ("sharding/dispatcher.py", "_run_shard"),
    }
    assert workers <= module_defs


def test_pool_payloads_survive_a_json_round_trip(monkeypatch):
    shipped = []

    def spy(fn, payloads, workers):
        shipped.extend(payloads)
        return run_pool(fn, payloads, workers)

    monkeypatch.setattr("repro.api.sweep.run_pool", spy)
    monkeypatch.setattr("repro.sharding.dispatcher.run_pool", spy)
    sweep = SweepSpec(
        base=RunSpec(target_population=40), providers=("ovhcloud",), mixes=("F",), seeds=(1,)
    )
    assert run_sweep(sweep, workers=1).ok
    run(RunSpec(target_population=40, seed=1, shards=2, workers=1))
    assert len(shipped) == 3  # one sweep cell, two shards
    for payload in shipped:
        assert json.loads(json.dumps(payload)) == payload
