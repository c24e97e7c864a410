"""Every name a module lists in __all__ exists, so star imports work."""

import importlib
import pkgutil

import pytest

import qubusim

MODULES = sorted(m.name for m in pkgutil.iter_modules(qubusim.__path__))


def test_every_module_is_listed():
    assert {"bcs", "builders", "cli", "hybrid", "pea", "resources", "sequence"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qubusim.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from qubusim.{name} import *", namespace)
