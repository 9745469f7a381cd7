"""Every name a fracspike module exports resolves: a deletion that leaves
its name in `__all__` fails here, not at a caller's star import."""

import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracspike"
MODULES = sorted("fracspike" if path.stem == "__init__"
                 else f"fracspike.{path.stem}"
                 for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined {missing}"
