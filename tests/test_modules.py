"""Module boundaries: no package module imports another module's private names."""

import ast
from pathlib import Path

import pytest

import mrdd

MODULES = sorted(Path(mrdd.__file__).resolve().parent.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``module.name`` for every ``_``-prefixed name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("mrdd")):
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_detector_flags_private_names():
    assert private_imports("from .localfit import FitSpec, _side_mask\n") == ["localfit._side_mask"]
    assert private_imports("from mrdd.synth import _tail_integral\n") == ["mrdd.synth._tail_integral"]
    assert private_imports("from ._bootstrap import run_replicates\nimport numpy as np\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []
