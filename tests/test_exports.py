"""Every name a pballs module exports in ``__all__`` resolves.

Star imports and tools that walk ``__all__`` with ``getattr`` (the
benchmark's tracer does) fail on a stale entry left after a deletion.
The package serves its Monte Carlo and suite names on first use, so they
are checked through ``getattr``, ``dir`` and a star import alike.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import pballs

MODULES = ["pballs", *(f"pballs.{m.name}" for m in pkgutil.iter_modules(pballs.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_has_resolvable_type_hints(name):
    # an annotation may not name what the module imports only inside a
    # function (numpy) or only for type checkers; a module without __all__
    # (cli) exports its public functions
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None) or [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == name
    ]
    functions = [getattr(module, attr) for attr in exported if inspect.isfunction(getattr(module, attr))]
    assert functions
    for fn in functions:
        typing.get_type_hints(fn)


def test_package_serves_every_name_it_lists():
    assert set(pballs.__all__) <= set(dir(pballs))
    star: dict = {}
    exec("from pballs import *", star)
    assert set(pballs.__all__) <= set(star)
    assert pballs.MCConfig is importlib.import_module("pballs.montecarlo").MCConfig
    assert pballs.run_suite is importlib.import_module("pballs.verify").run_suite
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        pballs.nonsense
