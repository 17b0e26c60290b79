"""The metric-name registry (repro.obs.names) backing lint rule R008."""

import ast
import inspect

from repro.obs import names


def _constants() -> dict[str, str]:
    return {
        attr: value
        for attr in names.__all__
        if isinstance(value := getattr(names, attr), str)
    }


def test_every_constant_is_registered():
    constants = _constants()
    assert constants, "registry exports no metric names"
    assert set(constants.values()) == names.ALL_METRIC_NAMES


def test_names_are_unique_and_well_formed():
    constants = _constants()
    assert len(set(constants.values())) == len(constants)
    for value in constants.values():
        # Dashboard-safe: dotted lowercase identifiers only.
        assert all(part.isidentifier() for part in value.split("."))
        assert value == value.lower()


def test_emit_sites_only_reference_known_names():
    # The registry must stay in sync with what the engines emit: every
    # attribute access `metric_names.X` across the library resolves.
    import repro.oversub.controller
    import repro.runner.runner
    import repro.serving.service
    import repro.sharding.dispatcher
    import repro.simulator.engine

    for module in (
        # The one event loop: the only emitter of the ``engine.*`` series.
        repro.simulator.engine,
        repro.runner.runner,
        repro.oversub.controller,
        repro.sharding.dispatcher,
        repro.serving.service,
    ):
        tree = ast.parse(inspect.getsource(module))
        used = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "metric_names"
        }
        assert used, f"{module.__name__} emits no registered metrics?"
        for attr in used:
            assert getattr(names, attr) in names.ALL_METRIC_NAMES
