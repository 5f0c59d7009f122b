"""Module boundaries: no package module imports another module's private names
or scipy at import time, analyze and plotdata never load scipy, and the
normal tail and quantiles they take from the standard library are accurate."""

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
from mrdd import imbens_manski_ci
from mrdd.diagnostics import _two_sided_p

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


def assert_same_bits(got, expected):
    """Equal bit for bit, except that a NaN's sign bit is not compared."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    assert got.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


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


def test_two_sided_p_accurate():
    # erfc(|t| / sqrt 2) against 40 digits. The rounding of |t| / sqrt 2 alone
    # costs about 2 t^2 eps relative, which is the 1.9e-13 measured at |t| = 37.
    import mpmath

    ts = np.concatenate([np.linspace(-37.0, 37.0, 7_401), np.geomspace(1e-300, 1.0, 100)])
    with mpmath.workdps(40):
        for t in ts.tolist():
            exact = mpmath.erfc(abs(mpmath.mpf(t)) / mpmath.sqrt(2))
            assert abs(_two_sided_p(t) - exact) <= 5e-13 * exact, t


def test_imbens_manski_quantiles_accurate():
    # with both SEs zero, c_bar is the one-sided quantile for a set and the
    # two-sided one for a point; measured within 5 ulps of 40 digits on alpha
    # in (0, 0.5]
    import mpmath

    alphas = np.concatenate([np.linspace(0.0, 0.5, 1_001)[1:], np.geomspace(2.0**-52, 0.5, 500)])
    with mpmath.workdps(40):
        for alpha in alphas.tolist():
            for upper, p in ((1.0, 1.0 - alpha), (0.0, 1.0 - alpha / 2.0)):
                got = imbens_manski_ci(0.0, upper, 0.0, 0.0, alpha).c_bar
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
                assert abs(got - exact) <= 8 * math.ulp(float(exact)), (alpha, p)
