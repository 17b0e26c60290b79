"""Every public definition in ``src/repro``, and every option it takes, has
a caller outside the tests.

A capability that only its own unit tests reach is code nothing runs:
it is documented, reviewed and timed in tier-1, and it guards nothing.

The walk is by name and transitive.  The roots are every name that
``perf/``, ``benchmarks/``, ``examples/`` and ``scripts/`` mention
(their ``tests/`` directories excepted), plus the module-level
statements of ``src/repro`` that define nothing (``__main__`` guards).
A top-level ``def``, ``class`` or assignment is reached once its name
is, and then every name its body mentions is reached too, so a
definition that only unreached definitions use is unreached as well.
A class body reaches its bases, decorators, class-level statements and
dunder methods with the class; every other method (or property) is
reached only when its name is reached as an attribute (``.name``), and
then its own body is reached in turn.  Package ``__init__`` re-exports
and ``__all__`` are not callers: they name everything.

Names match bare: ``foo`` reaches every top-level ``foo``, ``obj.foo``
reaches that and every method ``foo``.  That can only over-count
callers: the fence misses a dead definition that shares its name with a
live one, and never flags a live one.  Top-level assignments (tables,
constants) carry reachability but are not fenced; public ``def`` and
``class`` are, and so are the public methods of public top-level
classes.  Dunders are never fenced.

The second fence is over parameters: an option that no caller sets is
a value the tests cover and no experiment uses, so its default belongs
in the code.  It covers every defaulted parameter of a public
top-level function, of a public method of a public class, and of a
public class's ``__init__``.  A parameter's *caller* is a call, in
``src/repro`` or in the caller directories above, that passes it by
keyword or by position (a call with ``*args`` or ``**kwargs`` passes
everything) and whose callee is named, bare, like the function; like
the class, a subclass that inherits its ``__init__``, or
``super().__init__`` for an ``__init__``; like a name assigned from
a call-free expression that mentions the function (``check = check_int
if ... else check_real``); or like the parameter that receives the
function as an argument (``minimal_cluster(simulation_factory=probe)``
by keyword, ``run_pool(_run_cell, ...)`` by position), whose calls are
then the function's.  That too over-counts callers.  Two exemptions:
the parameters of a ``TEST_ONLY`` entry, and every module of ``EXEMPT_PACKAGES``.  The
injection seams of the front doors are listed in ``SEAMS`` with a
reason; both tables are checked both ways.  Dataclass fields are not
parameters here: the field contract (``test_field_contract.py``)
fences those.
"""

from __future__ import annotations

import ast
import functools
from itertools import takewhile
from pathlib import Path
from typing import Sequence

import repro

REPO = Path(repro.__file__).resolve().parents[2]
CALLERS = ("perf", "benchmarks", "examples", "scripts")

#: ``module::name`` (``module::Class.method`` for a method) -> why a
#: definition with no non-test caller stays: the live path it is the
#: test oracle for, or the fixture or reader it is.
TEST_ONLY = {
    "hardware/topology.py::Topology.core_distance": (
        "oracle for Topology.distance_matrix "
        "(test_distance_matrix_matches_pairwise_function)"
    ),
    "workload/usage.py::UsageProfile.demand_series": (
        "oracle for ClusterUsageMonitor.windows' diurnal_demand matrix "
        "(tests/oversub/test_batch_equivalence.py)"
    ),
    "localsched/vnode.py::VNode.allocated_vcpus": (
        "reader the vNode sizing tests assert through "
        "(tests/localsched/test_vnode.py, test_agent_properties.py)"
    ),
    "obs/records.py::load_jsonl_records": (
        "reader of the golden decision corpus (tests/simulator/test_golden_trace.py)"
    ),
    "hardware/topology.py::small_smp": "fixture topology of tests/hardware",
}

#: Modules whose parameters are not fenced: the sharding dispatcher's
#: surface is still to be decided as a whole.
EXEMPT_PACKAGES = ("sharding/",)

#: ``module::callee(param)`` -> why a defaulted parameter that no call
#: outside the tests passes stays: the injection seams of the front doors.
SEAMS = {
    "api/run.py::run(workload)": "replays a recorded trace instead of the generated one",
    "api/run.py::run(recorder)": "the decision sink a caller inspects after the run",
    "api/run.py::run(metrics)": "the registry a caller reads timings and counters from",
    "api/run.py::evaluate(workload)": "runs the §VII-B protocol on a recorded trace",
    "api/sweep.py::run_sweep(metrics)": "the registry a caller reads runner counters from",
    "cli.py::main(argv)": (
        "the command line as a list; the console scripts and python -m repro "
        "read sys.argv"
    ),
}


def _names(node: ast.AST) -> list[str]:
    """What ``node`` mentions: ``foo`` for a bare name, ``.foo`` for an attribute."""
    return [
        n.id if isinstance(n, ast.Name) else "." + n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreached(src_tree: dict[str, ast.Module], callers: Sequence[ast.Module]) -> set[str]:
    """``module::name`` of every fenced definition no root reaches."""
    bodies: dict[str, list[list[str]]] = {}  # name -> what each definition mentions
    fenced: dict[str, str] = {}  # module::name -> the name that reaches it
    roots: list[str] = [name for tree in callers for name in _names(tree)]
    for module, tree in src_tree.items():
        if module.endswith("__init__.py"):
            continue
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            own: list[str] = []
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [top.name]
                if not top.name.startswith("_"):
                    fenced[f"{module}::{top.name}"] = top.name
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                nodes = top.targets if isinstance(top, ast.Assign) else [top.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
                if targets == ["__all__"]:
                    continue
            else:
                targets = []
            if isinstance(top, ast.ClassDef):
                for node in (*top.bases, *top.keywords, *top.decorator_list):
                    own.extend(_names(node))
                for stmt in top.body:
                    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        _is_dunder(stmt.name)
                    ):
                        own.extend(_names(stmt))
                        continue
                    bodies.setdefault("." + stmt.name, []).append(_names(stmt))
                    if not (top.name.startswith("_") or stmt.name.startswith("_")):
                        fenced[f"{module}::{top.name}.{stmt.name}"] = "." + stmt.name
            else:
                own = _names(top)
            if not targets:
                roots.extend(own)
            for target in targets:
                bodies.setdefault(target, []).append(own)
    # One worklist pass: each name is expanded the first time it is reached.
    reached: set[str] = set()
    while roots:
        name = roots.pop()
        if name not in reached:
            reached.add(name)
            if name.startswith("."):  # an attribute reaches the bare name too
                roots.append(name[1:])
            for body in bodies.get(name, ()):
                roots.extend(body)
    return {key for key, name in fenced.items() if name not in reached}


@functools.cache  # both fences read the same trees
def _caller_trees() -> tuple[ast.Module, ...]:
    return tuple(
        ast.parse(path.read_text(encoding="utf-8"))
        for directory in CALLERS
        for path in sorted((REPO / directory).rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    )


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool):
    """``(param, positional index or None)`` for each defaulted parameter
    of ``fn``; the index counts the arguments a call writes (after
    ``self`` / ``cls`` when ``bound``), None for a keyword-only one."""
    positional = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
    first_default = len(positional) - len(fn.args.defaults)
    out = [(name, i - bound) for i, name in enumerate(positional) if i >= first_default]
    out += [
        (a.arg, None)
        for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _bare(func: ast.expr) -> str:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _passes(call: ast.Call, param: str, pos: int | None) -> bool:
    """Whether ``call`` may pass ``param``: by keyword, by position, or
    through a ``*args`` / ``**kwargs`` that could carry anything."""
    return (
        any(kw.arg in (None, param) for kw in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (pos is not None and len(call.args) > pos)
    )


def _unpassed(src_tree: dict[str, ast.Module], callers: Sequence[ast.Module]) -> set[str]:
    """``module::callee(param)`` of every fenced defaulted parameter that
    no call outside the tests passes."""
    # class -> the subclasses that inherit its ``__init__`` (bases match bare)
    heirs: dict[str, list[str]] = {}
    for tree in src_tree.values():
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not any(
                isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in top.body
            ):
                for base in top.bases:
                    heirs.setdefault(_bare(base), []).append(top.name)

    def constructors(name: str) -> set[str]:
        names, todo = {"__init__"}, [name]  # ``super().__init__(...)`` counts too
        while todo:
            if (n := todo.pop()) not in names:
                names.add(n)
                todo.extend(heirs.get(n, ()))
        return names

    # (module::callee(param), bare names a call may use, param, position)
    fenced: list[tuple[str, set[str], str, int | None]] = []
    for module, tree in src_tree.items():
        if module.endswith("__init__.py") or module.startswith(EXEMPT_PACKAGES):
            continue
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if top.name.startswith("_") or f"{module}::{top.name}" in TEST_ONLY:
                continue
            if not isinstance(top, ast.ClassDef):
                for param, pos in _defaulted(top, bound=False):
                    fenced.append((f"{module}::{top.name}({param})", {top.name}, param, pos))
                continue
            for fn in top.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name == "__init__":
                    callee, names = top.name, constructors(top.name)
                elif fn.name.startswith("_") or f"{module}::{top.name}.{fn.name}" in TEST_ONLY:
                    continue
                else:
                    callee, names = f"{top.name}.{fn.name}", {fn.name}
                bound = not any(_bare(d) == "staticmethod" for d in fn.decorator_list)
                for param, pos in _defaulted(fn, bound):
                    fenced.append((f"{module}::{callee}({param})", names, param, pos))

    # bare name -> the positional parameters of each def so named (after
    # ``self`` / ``cls`` for a method; a class's are its ``__init__``'s)
    signatures: dict[str, list[list[str]]] = {}
    for tree in src_tree.values():
        for top in tree.body:
            defs = [(top.name, top, False)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                defs = [
                    (top.name if fn.name == "__init__" else fn.name, fn, True)
                    for fn in top.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            for name, fn, method in defs:
                bound = method and not any(_bare(d) == "staticmethod" for d in fn.decorator_list)
                names = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
                signatures.setdefault(name, []).append(names[bound:])

    calls: dict[str, list[ast.Call]] = {}  # bare callee name -> its calls
    aliases: dict[str, set[str]] = {}  # ``check = check_int if ... else check_real``
    for tree in (*src_tree.values(), *callers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_bare(node.func), []).append(node)
                # A def handed over as an argument is called under the
                # receiving parameter's name: ``run_pool(_run_cell, ...)``.
                handed = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
                args = list(takewhile(lambda a: not isinstance(a, ast.Starred), node.args))
                for sig in signatures.get(_bare(node.func), ()):
                    handed += zip(sig, args)
                for param, value in handed:
                    if isinstance(value, (ast.Name, ast.Attribute)) and _bare(value) in signatures:
                        aliases.setdefault(param, set()).add(_bare(value))
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and not any(isinstance(n, ast.Call) for n in ast.walk(node.value))
            ):
                aliases.setdefault(node.targets[0].id, set()).update(
                    name.lstrip(".") for name in _names(node.value)
                )
    # A call through an alias is a call to every name the alias was bound from.
    for alias, names in aliases.items():
        for name in names:
            if name != alias:
                calls.setdefault(name, []).extend(calls.get(alias, ()))
    return {
        key
        for key, names, param, pos in fenced
        if not any(_passes(c, param, pos) for n in names for c in calls.get(n, ()))
    }


def test_every_public_definition_has_a_non_test_caller(src_tree):
    unreached = _unreached(src_tree, _caller_trees())
    # (only tests call it, needs a caller or a TEST_ONLY reason;
    #  listed in TEST_ONLY but now has a real caller, drop the entry)
    assert (unreached - set(TEST_ONLY), set(TEST_ONLY) - unreached) == (set(), set())
    assert all(reason.strip() for reason in TEST_ONLY.values())


_SYNTHETIC = '''
class Engine:
    def __init__(self):
        self.ready = True

    def __repr__(self):
        return "Engine"

    def run(self):
        return self.helper()

    def helper(self):
        return 1

    def only_tests_call_this(self):
        return 2

    def _private(self):
        return 3


def build():
    return Engine()
'''


def test_walker_fences_methods_by_attribute_reach():
    src = {"engine.py": ast.parse(_SYNTHETIC)}
    caller = [ast.parse("from engine import build\nbuild().run()\n")]
    # ``run`` is reached as ``.run``; its body reaches ``.helper``.
    # Dunders and private methods are never fenced.
    assert _unreached(src, caller) == {"engine.py::Engine.only_tests_call_this"}
    # With no caller at all, the class and every public method are flagged.
    assert _unreached(src, []) == {
        "engine.py::build",
        "engine.py::Engine",
        "engine.py::Engine.run",
        "engine.py::Engine.helper",
        "engine.py::Engine.only_tests_call_this",
    }


def test_every_defaulted_parameter_has_a_non_test_caller(src_tree):
    unpassed = _unpassed(src_tree, _caller_trees())
    dead, stale = sorted(unpassed - set(SEAMS)), sorted(set(SEAMS) - unpassed)
    assert not dead, (
        "only tests set these options: delete each and make its default part "
        "of the code, or give it a SEAMS reason\n" + "\n".join(dead)
    )
    assert not stale, "a real caller passes these now: drop them from SEAMS\n" + "\n".join(stale)
    assert all(reason.strip() for reason in SEAMS.values())


_SYNTHETIC_PARAMS = '''
def peak(workload, horizon=None, *, strict=False):
    return workload


class Base:
    def __init__(self, cap=3.0):
        self.cap = cap


class Heir(Base):
    pass


class Own(Base):
    def __init__(self, step=0.25):
        super().__init__()

    def tick(self, dt=1.0, jitter=0.0):
        return dt

    @staticmethod
    def make(kind="a"):
        return kind
'''


def test_walker_fences_parameters_no_call_passes():
    src = {"m.py": ast.parse(_SYNTHETIC_PARAMS)}
    everything = {
        "m.py::peak(horizon)",
        "m.py::peak(strict)",
        "m.py::Base(cap)",
        "m.py::Own(step)",
        "m.py::Own.tick(dt)",
        "m.py::Own.tick(jitter)",
        "m.py::Own.make(kind)",
    }
    assert _unpassed(src, []) == everything
    # By position (after ``self``; a static method has none), by
    # keyword, through an heir that inherits ``__init__``.
    caller = "peak(w, strict=True)\nHeir(cap=2.0)\nobj.tick(0.5)\nOwn.make('b')\n"
    assert _unpassed(src, [ast.parse(caller)]) == {
        "m.py::peak(horizon)", "m.py::Own(step)", "m.py::Own.tick(jitter)",
    }
    # ``*args`` / ``**kwargs`` may carry anything; ``super().__init__``
    # reaches every ``__init__`` by its bare name; a call through an
    # assigned alias reaches what the alias was bound from.
    caller = (
        "peak(*args)\nobj.tick(**opts)\nsuper().__init__(cap=1.0)\n"
        "make = factory.make if fast else peak\nmake(1)\n"
    )
    assert _unpassed(src, [ast.parse(caller)]) == {"m.py::Own(step)"}


_SYNTHETIC_HANDOFF = '''
def probe(machines, extra=None, unused=0):
    return machines


def size(workload, factory=None):
    return factory(workload, extra=1)


def run_all(fn, items):
    return [fn(item, 2) for item in items]


def cell(payload, retries=3):
    return payload
'''


def test_walker_follows_functions_passed_as_arguments():
    src = {"m.py": ast.parse(_SYNTHETIC_HANDOFF)}
    assert _unpassed(src, []) == {
        "m.py::probe(extra)", "m.py::probe(unused)", "m.py::size(factory)", "m.py::cell(retries)",
    }
    # ``factory(..., extra=1)`` calls ``probe`` (handed over by keyword)
    # and ``fn(item, 2)`` calls ``cell`` (by position); nothing passes
    # ``unused``, through either name.
    caller = "size(w, factory=probe)\nrun_all(cell, items)\n"
    assert _unpassed(src, [ast.parse(caller)]) == {"m.py::probe(unused)"}
