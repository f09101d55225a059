"""Every exported name resolves, module by module and through `import *`;
importing the CLI stays light."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI call is a fresh process, so every module the package imports is
    # paid on every call; `dataclasses` brings `inspect`, `ast`, `dis` and
    # `tokenize`.  -S keeps modules that `site` preloads out of the comparison.
    code = (
        "import sys; before = set(sys.modules); import denumerant.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(denumerant.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "denumerant.cli" in new
    assert new & {"dataclasses", "inspect"} == set()


def test_cli_evaluates_through_partition():
    # one dispatch from a route name to a value: the CLI binds no route of its own
    from denumerant import cli, partition

    routes = {"p_product", "p_stirling", "p_quasipoly", "p_oracle_upto", "build_fiber_index"}
    assert routes & set(vars(cli)) == set()
    assert cli._evaluator is partition._evaluator
    # and no second route list: the methods are the table's rows, and no route
    # name is spelled out in the CLI's source
    assert cli._EVAL_METHODS[1:] == tuple(partition._ROUTES)
    source = Path(cli.__file__).read_text()
    assert '"popoviciu"' not in source and '"floorsum"' not in source
