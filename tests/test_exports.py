"""Every public name a module declares must exist.

A deleted or renamed function can leave its name in ``__all__``, where only
``from ... import *`` would notice.  The package itself declares no
``__all__``; the names it re-exports must each be public in the module that
defines them.
"""

import importlib

import pytest

import losscost

MODULES = ["model", "model_io", "howard", "costdist", "simulate"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"losscost.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"losscost.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_public_names():
    public = {attr for name in MODULES for attr in importlib.import_module(f"losscost.{name}").__all__}
    reexported = {attr for attr, value in vars(losscost).items()
                  if not attr.startswith("_") and getattr(value, "__module__", "").startswith("losscost.")}
    assert reexported, "no re-exported names found"
    assert reexported <= public, sorted(reexported - public)
