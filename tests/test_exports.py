"""Every name a ``symprs`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import symprs

MODULES = ["symprs", *(f"symprs.{info.name}" for info in pkgutil.iter_modules(symprs.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
