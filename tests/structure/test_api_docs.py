"""``docs/API.md`` indexes the public API: every name a ``repro``
package exports is in it, and every ``repro.*`` path it names exists."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import repro

API_MD = Path(repro.__file__).resolve().parents[2] / "docs" / "API.md"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes of its longest
    importable module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_api_md_documents_every_exported_name_and_only_real_ones():
    doc = API_MD.read_text(encoding="utf-8")
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    undocumented = {
        f"{package.__name__}.{name}"
        for package in packages
        for name in package.__all__
        if not re.search(rf"\b{re.escape(name)}\b", doc)
    }
    dangling = {ref for ref in re.findall(r"\brepro(?:\.\w+)+", doc) if not _resolves(ref)}
    assert undocumented == set()
    assert dangling == set()
