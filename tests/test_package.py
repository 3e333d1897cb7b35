"""The public export list of the package."""

import importlib
import os
import subprocess
import sys

import pytest

import narrow2

REMOVED = ("AlgebraElement", "CochainTable", "GroupElement",
           "IncompleteTableError", "central_element", "check_cochain_recursion",
           "project_characters", "sqrt_two_adic", "vector_character")


def test_export_list_sorted_and_unique():
    assert narrow2.__all__ == sorted(set(narrow2.__all__))


def test_every_export_resolves():
    missing = [name for name in narrow2.__all__ if not hasattr(narrow2, name)]
    assert not missing


def test_expansion_layer_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("narrow2.expansion")
    assert [name for name in REMOVED if hasattr(narrow2, name)] == []
    assert not hasattr(narrow2.errors, "IncompleteTableError")
    assert not hasattr(narrow2.arith, "sqrt_two_adic")


def test_import_leaves_sympy_unloaded():
    # sympy is imported lazily, by the first descent-regime solve only
    code = "import sys, narrow2\nprint('sympy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(narrow2.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
