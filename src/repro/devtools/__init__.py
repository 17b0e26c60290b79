"""Developer tooling: the determinism & simulation-safety linter.

``repro.devtools.lint`` (``repro lint`` on the CLI, or
``python -m repro.devtools.lint``) is an AST-based static-analysis
pass over ``src/`` and ``scripts/`` whose rules encode the invariants
the golden-trace and kernel-equivalence suites enforce dynamically —
so determinism regressions fail a lint job *before* they fail a
byte-identity diff.  See ``docs/ARCHITECTURE.md`` §12 for the rule
table.
"""

from __future__ import annotations

from typing import Any

# Lazy re-exports: importing `repro.devtools.lint` for `python -m`
# execution must not find the module pre-imported by its own package
# (runpy's RuntimeWarning), so the package namespace resolves names on
# first attribute access instead of at import time.
_EXPORTS = {
    "Finding": "repro.devtools.rules",
    "LintReport": "repro.devtools.lint",
    "lint_paths": "repro.devtools.lint",
    "main": "repro.devtools.lint",
    "RULES": "repro.devtools.rules",
    "DETERMINISM_RULES": "repro.devtools.rules",
    "rule_table": "repro.devtools.rules",
}


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "main",
    "RULES",
    "DETERMINISM_RULES",
    "rule_table",
]
