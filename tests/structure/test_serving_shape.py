"""``repro.serving`` keeps time on one ``VirtualClock`` and mutates its
shards from one scheduler continuation."""

from __future__ import annotations

import ast


def _serving(src_tree):
    return {m: tree for m, tree in src_tree.items() if m.startswith("serving/")}


def test_serving_keeps_time_only_on_the_virtual_clock(src_tree):
    """Coroutines wait with ``await clock.sleep(dt)`` and read
    ``clock.now()``.  The only other time calls are ``run_virtual``'s
    cooperative ``asyncio.sleep(0)`` yield and the ``perf_counter`` pair
    that prices a decision in wall seconds for the latency histogram
    (never the decision log)."""
    imports, calls = set(), set()
    for module, tree in _serving(src_tree).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                roots = {
                    (getattr(node, "module", None) or alias.name).split(".")[0]
                    for alias in node.names
                }
                if roots & {"time", "datetime"}:
                    imports.add((module, ast.unparse(node)))
            elif isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                clocks = ("time.", "datetime.", "asyncio.sleep")
                if func.startswith(clocks) or func.endswith(".time"):
                    calls.add((module, ast.unparse(node)))
    assert imports == {("serving/service.py", "import time")}
    assert calls == {
        ("serving/clock.py", "asyncio.sleep(0)"),
        ("serving/service.py", "time.perf_counter()"),
    }


def test_every_coroutine_call_is_awaited_or_scheduled(src_tree):
    """A bare ``self._tick()`` statement on an ``async def`` creates a
    coroutine and drops it: the work silently never runs."""
    dropped = []
    for module, tree in _serving(src_tree).items():
        coroutines = {n.name for n in ast.walk(tree) if isinstance(n, ast.AsyncFunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in coroutines:
                    dropped.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert dropped == []


def test_every_controller_mutation_is_reachable_from_the_scheduler_loop(src_tree):
    """``PlacementService._scheduler`` is the single writer: a method
    that calls a method of a shard (a shard's methods all mutate; its
    reads are attribute reads) on ``self.controllers`` or a local bound
    from it must run inside the scheduler continuation: reachable
    through sync ``self.<m>()`` calls and coroutines awaited on the spot
    (a method handed to a timer or the ready queue runs on its own).
    ``__init__`` builds the fleet before the run starts."""
    (service,) = [
        node for node in src_tree["serving/service.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "PlacementService"
    ]
    methods = {
        fn.name: fn for fn in service.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def mutates(fn) -> bool:
        shards = {"self.controllers"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                bindings = [(target, node.value) for target in node.targets]
            elif isinstance(node, (ast.For, ast.comprehension)):
                bindings = [(node.target, node.iter)]
            else:
                bindings = []
            for target, value in bindings:
                if "self.controllers" in ast.unparse(value):
                    shards.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value).split("[")[0] in shards
            for node in ast.walk(fn)
        )

    def runs_inline(fn):
        """``self.<m>()`` calls that run in the caller's task: a sync
        method, or a coroutine awaited on the spot (a spawned one runs
        as a task of its own)."""
        awaited = {id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Await)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                callee = methods.get(node.func.attr)
                if ast.unparse(node.func.value) == "self" and callee is not None and (
                    isinstance(callee, ast.FunctionDef) or id(node) in awaited
                ):
                    yield callee.name

    reachable, frontier = set(), ["_scheduler"]
    while frontier:
        name = frontier.pop()
        if name not in reachable:
            reachable.add(name)
            frontier.extend(runs_inline(methods[name]))
    writers = {name for name, fn in methods.items() if name != "__init__" and mutates(fn)}
    assert writers, "no shard mutation found: the fence is looking at the wrong code"
    assert writers - reachable == set()
