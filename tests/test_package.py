"""Every exported name resolves, module by module and through `import *`."""

import importlib

import pytest

import denumerant

MODULES = ["numbers", "congruence", "partition", "polypart", "frobenius", "selfcheck"]


@pytest.mark.parametrize("module", ["denumerant", *(f"denumerant.{m}" for m in MODULES)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import():
    namespace = {}
    exec("from denumerant import *", namespace)
    assert set(denumerant.__all__) <= set(namespace)
