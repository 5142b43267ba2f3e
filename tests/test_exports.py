"""Every name a ``daereach`` module exports exists, so no deletion leaves a
stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import daereach

MODULES = ["daereach"] + [
    f"daereach.{info.name}" for info in pkgutil.iter_modules(daereach.__path__)
]


def test_every_module_is_found():
    assert {"daereach.decoupling", "daereach.linalg", "daereach.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
