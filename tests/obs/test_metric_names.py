"""The metric-name registry (repro.obs.names).

That every emit site in src/repro goes through it is a structural fence:
tests/structure/test_metric_emit_sites.py.
"""

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

