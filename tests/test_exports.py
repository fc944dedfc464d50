"""Every name a pballs module exports in ``__all__`` resolves.

Star imports and tools that walk ``__all__`` with ``getattr`` (the
benchmark's tracer does) fail on a stale entry left after a deletion.
"""

import importlib
import pkgutil

import pytest

import pballs

MODULES = ["pballs", *(f"pballs.{m.name}" for m in pkgutil.iter_modules(pballs.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
