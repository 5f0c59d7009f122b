"""Module boundaries: no package module imports another module's private names
or scipy at import time, analyze and plotdata never load scipy, and the
package's normal cdf and quantile are scipy's bits."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrdd
from mrdd import _normal

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


def module_level_scipy_imports(source: str) -> list[str]:
    """Every import of scipy (or a name from it) that runs when ``source`` is imported.

    An import inside a function body runs only when the function is called.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names if alias.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module.split(".")[0] == "scipy":
                found.extend(f"{child.module}.{alias.name}" for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def test_detector_flags_module_level_scipy():
    assert module_level_scipy_imports("from scipy import special, stats\n") == ["scipy.special", "scipy.stats"]
    assert module_level_scipy_imports(
        "import numpy, scipy.integrate as si\nif True:\n    from scipy.stats import norm\n"
        "class A:\n    import scipy\n"
    ) == ["scipy.integrate", "scipy.stats.norm", "scipy"]
    assert module_level_scipy_imports(
        "import scipyx\nfrom .scipy import f\ndef g():\n    from scipy import special\n"
        "class B:\n    def h(self):\n        import scipy.integrate\n"
    ) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # importing scipy.special alone took most of the CLI's start; only the
    # simulators and the oracle import scipy, inside the functions that use it
    assert module_level_scipy_imports(path.read_text()) == []


def test_analyze_and_plotdata_never_load_scipy(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2_000)
    y = (x + rng.standard_normal(x.size) > 0.0).astype(int)
    w = 0.5 * x + rng.standard_normal(x.size)
    sample = tmp_path / "s.csv"
    np.savetxt(sample, np.column_stack([x, y, w]), delimiter=",", header="x,y,w", comments="", fmt="%.17g")
    script = (
        "import sys\n"
        "from mrdd.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded(), loaded()\n"
        f"assert main(['analyze', {str(sample)!r}, '--cutoff', '0', '--y-min', '0', '--y-max', '1',\n"
        f"             '--boot', '50', '--sharp', '--covariate', 'w', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        f"assert main(['plotdata', {str(sample)!r}, '--cutoff', '0', '--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
        "assert not loaded(), loaded()\n"
        "sys.exit(main(['oracle', '--p', '0.1', '--lambda', '0.05']))\n"
    )
    src = str(Path(mrdd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["p"], payload["lambda"]) == (0.1, 0.05)
    assert payload["sharp"][0] <= payload["theta_true"] <= payload["sharp"][1]
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["blocks"][0]["sharp_set"] is not None


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


def with_neighbours(points) -> np.ndarray:
    """Each point and the floats just below and above it."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


# The branch points of _normal.ndtr, in a = x sqrt(2): erf to erfc at |a| = 1,
# erfc's P/Q approximation from |x| = 1 and its R/S one from |x| = 8. Past
# x^2 = MAXLOG (|a| = 37.68) erfc is 0, where exp(-x^2) would still be a
# subnormal up to |a| = 38.6; the sweep between pins MAXLOG's value.
CDF_EDGES = with_neighbours(
    np.concatenate([[1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.7, 38.5], np.linspace(37.5, 38.6, 1_101)])
)
CDF_EDGES = np.concatenate([CDF_EDGES, -CDF_EDGES])
# _normal.ndtri's: the central approximation on (e^-2, 1 - e^-2), the tails'
# P1/Q1 down to y = e^-32 and P2/Q2 below it, the ends and out of domain
QUANTILE_EDGES = np.concatenate([
    with_neighbours([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0), 5e-324, 0.0, 1.0]),
    [-0.0, -5e-324, -0.5, 1.5, -np.inf, np.inf, np.nan],
])


def assert_same_bits(got, expected):
    """Equal bit for bit, except that a NaN's sign bit is not compared."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    assert got.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("name", ["sf", "cdf", "ppf"])
def test_port_bitwise_equal_scipy_stats(name):
    from scipy import stats

    port, reference, grid = {
        "sf": (lambda t: _normal.ndtr(-t), stats.norm.sf, np.concatenate([NORMAL_GRID, CDF_EDGES])),
        "cdf": (_normal.ndtr, stats.norm.cdf, np.concatenate([NORMAL_GRID, CDF_EDGES])),
        "ppf": (_normal.ndtri, stats.norm.ppf, np.concatenate([PROBABILITY_GRID, QUANTILE_EDGES])),
    }[name]
    got = [port(value) for value in grid.tolist()]
    assert all(type(value) is float for value in got)
    assert_same_bits(np.array(got), reference(grid))


@pytest.mark.parametrize("name", ["cdf", "pdf"])
def test_normal_functions_bitwise_equal_scipy_stats(name):
    # the simulators and the oracle still evaluate scipy.special.ndtr, on arrays
    from scipy import special, stats

    from mrdd.synth import _norm_pdf

    replacement, reference = {"cdf": (special.ndtr, stats.norm.cdf), "pdf": (_norm_pdf, stats.norm.pdf)}[name]
    assert_same_bits(replacement(NORMAL_GRID), reference(NORMAL_GRID))
    # the oracle's quadrature passes floats
    for value in NORMAL_GRID[::997].tolist() + [0.0, -0.0, 38.5, -38.5]:
        assert_same_bits(replacement(value), reference(value))
