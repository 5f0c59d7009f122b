"""Module boundaries: no package module imports another module's private names or
scipy.stats, and importing the CLI stays light."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def scipy_stats_imports(source: str) -> list[str]:
    """Every import of ``scipy.stats`` (or a name from it) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("scipy.stats")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.stats"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{alias.name}" for alias in node.names if alias.name == "stats"]
    return found


def test_detector_flags_scipy_stats():
    assert scipy_stats_imports("from scipy import special, stats\n") == ["scipy.stats"]
    assert scipy_stats_imports("import scipy.stats as ss\nfrom scipy.stats import norm\n") == [
        "scipy.stats", "scipy.stats",
    ]
    assert scipy_stats_imports("from scipy import special\nimport scipy.integrate\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_stats_import(path):
    # scipy.stats takes most of the CLI's import time; the package uses
    # scipy.special's normal functions instead
    assert scipy_stats_imports(path.read_text()) == []


def test_cli_import_leaves_out_scipy_stats_and_integrate():
    script = (
        "import sys\n"
        "import mrdd.cli\n"
        "heavy = sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate')))\n"
        "assert not heavy, heavy\n"
        "sys.exit(mrdd.cli.main(['oracle', '--p', '0.1', '--lambda', '0.05']))\n"
    )
    src = str(Path(mrdd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["p"], payload["lambda"]) == (0.1, 0.05)
    assert payload["sharp"][0] <= payload["theta_true"] <= payload["sharp"][1]


# points where each replacement of a scipy.stats.norm method is checked bit for bit
NORMAL_GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 100_001),
    np.geomspace(1e-300, 1e3, 50_000),
    -np.geomspace(1e-300, 1e3, 50_000),
    [0.0, -0.0, 1e-300, -1e-300, 38.5, -38.5, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
])
PROBABILITY_GRID = np.concatenate([
    np.linspace(0.0, 1.0, 100_001),
    np.geomspace(1e-300, 0.5, 50_000),
    1.0 - np.geomspace(1e-16, 0.5, 50_000),
    [0.0, -0.0, 1.0, 5e-324, -0.5, 1.5, np.nan],
])


def assert_same_bits(got, expected):
    """Equal bit for bit, except that a NaN's sign bit is not compared."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    assert got.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("name", ["sf", "cdf", "ppf", "pdf"])
def test_normal_functions_bitwise_equal_scipy_stats(name):
    from scipy import special, stats

    from mrdd.synth import _norm_pdf

    replacement, reference, grid = {
        "sf": (lambda t: special.ndtr(-t), stats.norm.sf, NORMAL_GRID),
        "cdf": (special.ndtr, stats.norm.cdf, NORMAL_GRID),
        "ppf": (special.ndtri, stats.norm.ppf, PROBABILITY_GRID),
        "pdf": (_norm_pdf, stats.norm.pdf, NORMAL_GRID),
    }[name]
    assert_same_bits(replacement(grid), reference(grid))
    # the package also calls them on scalars (the oracle's quadrature passes floats)
    for value in grid[::997].tolist() + [0.0, -0.0, 38.5, -38.5]:
        assert_same_bits(replacement(value), reference(value))
