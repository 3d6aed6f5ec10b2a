"""Every name in the package's and each submodule's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import fracrelax

MODULES = ["fracrelax"] + [
    f"fracrelax.{info.name}"
    for info in pkgutil.iter_modules(fracrelax.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
