"""Module boundaries: no package module imports another module's private names,
only ``inference`` reads the bootstrap draw matrix and only ``boundary`` its
plan, only ``build_plan`` and plotdata resolve bandwidths, only
``FitConfig`` holds them and only it builds a fit spec, ``build_plan`` and the density fits share
one CDF window function, every public function and error class is reached by the package or
named as library API, every command runs with scipy's import blocked,
analyze loads no numpy.ma and a one-worker analyze no thread pool, the
package loads each module when one of its names is first read, the normal
cdf, tail and quantiles the package takes from the standard library are
accurate, and README's library example runs on the public API."""

import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrdd
from mrdd import errors, imbens_manski_ci
from mrdd.inference import _two_sided_p
from reports import block_of

MODULES = sorted(Path(mrdd.__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert private_imports("from .boundary import run_replicates\nimport numpy as np\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


def test_cli_refits_nothing_outside_the_plan():
    # analyze reads the sharp window and the fuzzy bound's d+- from the
    # bootstrap plan; neither the CLI nor the report imports or names a
    # full-sample fit
    for name in ("cli.py", "report.py"):
        tree = ast.parse((Path(mrdd.__file__).resolve().parent / name).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"local_poly_fit", "local_weights"}, name


def test_bounds_imports_no_estimation_module():
    # the bounds take (mu_plus, mu_minus, r) themselves, so the identification
    # layer reads nothing from the estimation layer; errors is the one sibling
    tree = ast.parse((Path(mrdd.__file__).resolve().parent / "bounds.py").read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    absolute += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert relative == {"errors"}
    assert not [name for name in absolute if name.split(".")[0] == "mrdd"]


def test_only_inference_reads_the_draw_matrix():
    # the tests, the bounds and the point SE take their columns of
    # BoundaryDraws.draws in inference, so its layout is known in one module
    def reads(path):
        return any(isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "draws" for node in ast.walk(ast.parse(path.read_text())))

    assert [path.name for path in MODULES if path.name != "inference.py" and reads(path)] == []


def test_only_boundary_reads_the_plan():
    # the plan's windows, counts and moment rows are read in the module that
    # builds them; inference and cli hand the plan back to its functions. A
    # field name another class of the package also has (Dataset.n) cannot
    # be told apart by name and is left out, and so is a method call
    # (list.index)
    import dataclasses

    from mrdd.boundary import Plan, _SidePlan

    assert Plan.__module__ == _SidePlan.__module__ == "mrdd.boundary"
    others = set()
    for module in (getattr(mrdd, name) for name in mrdd._MODULES):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and cls not in (Plan, _SidePlan):
                others |= set(vars(cls))
                if dataclasses.is_dataclass(cls):
                    others |= {f.name for f in dataclasses.fields(cls)}
    plan_fields = {f.name for cls in (Plan, _SidePlan) for f in dataclasses.fields(cls)} - others
    assert {"sides", "mean_counts", "density_counts", "rank", "moments"} <= plan_fields

    def reads(path):
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        return sorted({node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr in plan_fields and id(node) not in called})

    assert {path.name: reads(path) for path in MODULES if path.name != "boundary.py" and reads(path)} == {}


def call_scopes(name: str) -> set[str]:
    """The dotted class and function scope of every package call to a
    function or method named ``name``."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                scopes.add(".".join(scope))
            visit(child, inner)

    for path in MODULES:
        visit(ast.parse(path.read_text()), ())
    return scopes


def test_only_the_plan_and_plotdata_resolve_bandwidths():
    # build_plan fills in an analysis's bandwidths and keeps them on the plan;
    # plotdata has no plan and fills in its density fits' own
    assert call_scopes("resolved") == {"build_plan", "cmd_plotdata"}


def test_localfit_alone_finds_the_cdf_window():
    # the plan takes its CDF windows, their counts and the tie groups from the
    # functions density_curve's fits use; no module keeps a window of its own
    assert call_scopes("cdf_windows") == call_scopes("sorted_rows") == {"_density_fits", "build_plan"}
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "density_window" not in defined


def test_only_fit_config_builds_fit_specs():
    # FitConfig turns its order, kernel and resolved bandwidths into the specs
    # analyze and plotdata fit with; no other package code builds one
    assert call_scopes("FitSpec") == {"FitConfig._spec"}


def test_fit_config_alone_holds_the_bandwidths():
    # the four bandwidths are FitConfig's own fields, and the estimates key
    # their bandwidths and window rows by boundary.FITS: no record holds them
    classes = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    assert not {"Bandwidths", "SideCounts"} & (classes | set(mrdd.__all__))


#: Public functions kept for library callers though no command reaches them:
#: the array-level fitting API, and README's entry point to the bootstrap,
#: which hides the engine's plan
LIBRARY_API = {"estimate_boundary", "local_poly_fit", "boundary_density", "bootstrap_boundary_replicates"}


def test_public_surface_is_reached():
    # a public function is named in code by another package module, and an
    # error class is built (support_error returns the fit errors its callers
    # raise) or caught by one, or is a base of one that is. __init__ only
    # re-exports, and docstrings are not code.
    trees = {f"mrdd.{path.stem}": ast.parse(path.read_text()) for path in MODULES if path.stem != "__init__"}

    def named(module: str) -> set[str]:
        return {node.id if isinstance(node, ast.Name) else node.attr
                for other, tree in trees.items() if other != module
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}

    def built_or_caught(node) -> list:
        if isinstance(node, ast.Call):
            return [node.func]
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            return node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return []

    functions = [name for name in mrdd.__all__ if not inspect.isclass(getattr(mrdd, name))]
    unreached = [name for name in functions
                 if name not in LIBRARY_API and name not in named(getattr(mrdd, name).__module__)]
    handled = {part.id if isinstance(part, ast.Name) else part.attr
               for module, tree in trees.items() if module != "mrdd.errors"
               for node in ast.walk(tree) for part in built_or_caught(node)
               if isinstance(part, (ast.Name, ast.Attribute))}
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__]
    used = {cls for cls in classes if cls.__name__ in handled}
    unreached += [cls.__name__ for cls in classes if not any(issubclass(user, cls) for user in used)]
    assert unreached == []


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports this package."""
    src = str(Path(mrdd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every public
    # name resolves and every command exits 0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2_000)
    y = (x + rng.standard_normal(x.size) > 0.0).astype(int)
    w = 0.5 * x + rng.standard_normal(x.size)
    sample = tmp_path / "s.csv"
    np.savetxt(sample, np.column_stack([x, y, w]), delimiter=",", header="x,y,w", comments="", fmt="%.17g")
    simulate = [["appendix-d"], ["counterexample-e"], ["typed", "--share", "0=0.5", "--share", "2=0.5"]]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import mrdd\n"
        "from mrdd.cli import main\n"
        f"assert main(['analyze', {str(sample)!r}, '--cutoff', '0', '--y-min', '0', '--y-max', '1',\n"
        f"             '--boot', '50', '--sharp', '--covariate', 'w', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        f"assert main(['plotdata', {str(sample)!r}, '--cutoff', '0', '--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
        "# a one-worker run starts no thread pool, so it imports none\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "missing = [name for name in mrdd.__all__ if getattr(mrdd, name, None) is None]\n"
        "assert not missing, missing\n"
        f"for dgp in {simulate!r}:\n"
        f"    assert main(['simulate', *dgp, '--n', '2000', '--out', {str(tmp_path / 'sim.csv')!r}]) == 0, dgp\n"
        f"sys.exit(main(['oracle', '--p', '0.1', '--lambda', '0.05', '--out', {str(tmp_path / 'o.json')!r}]))\n"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "o.json").read_text())
    assert (payload["p"], payload["lambda"]) == (0.1, 0.05)
    assert payload["sharp"][0] <= payload["theta_true"] <= payload["sharp"][1]
    report = json.loads((tmp_path / "r.json").read_text())
    assert block_of(report)["sharp_set"] is not None


def test_analyze_never_loads_numpy_ma(tmp_path):
    # np.unique reads np.ma.is_masked, which imports numpy.ma; nothing
    # analyze runs needs it
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2_000)
    x = np.concatenate([x, x[:20]])  # some ties, which analyze counts
    d = (x >= 0.0).astype(int)
    sample = tmp_path / "s.csv"
    np.savetxt(sample, np.column_stack([x, d, d]), delimiter=",", header="x,y,d", comments="", fmt="%.17g")
    script = (
        "import sys\n"
        "from mrdd.cli import main\n"
        f"assert main(['analyze', {str(sample)!r}, '--cutoff', '0', '--y-min', '0', '--y-max', '1', '--boot', '50',\n"
        f"             '--sharp', '--fuzzy', '--col-d', 'd', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    # the 20 repeated values, counted on a sorted copy
    assert json.loads((tmp_path / "r.json").read_text())["duplicate_x_fraction"] == 1.0 - 2_000 / 2_020


def test_package_loads_each_module_on_first_use(tmp_path):
    # import mrdd loads no module of the package, and plotdata none of what
    # only analyze and the report writer run: the protocol, the bounds'
    # inference, the report, JSON and the internal-error traceback
    sample = tmp_path / "s.csv"
    sample.write_text("x\n" + "\n".join(map(repr, np.random.default_rng(1).standard_normal(500).tolist())) + "\n")
    plotdata = (
        "import sys\n"
        "import mrdd\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('mrdd.'))\n"
        "assert not loaded, loaded\n"
        "from mrdd.cli import main\n"
        f"assert main(['plotdata', {str(sample)!r}, '--cutoff', '0', '--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
        "loaded = [m for m in ('mrdd.inference', 'mrdd.report', 'statistics', 'json', 'traceback') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    # dir lists the public names before any is read, each resolves by
    # attribute, as do the modules README reads names from, and a star
    # import binds them
    namespace = (
        "import mrdd\n"
        "assert '__all__' in dir(mrdd) and set(mrdd.__all__) <= set(dir(mrdd))\n"
        "assert callable(mrdd.inference.protocol_from_draws) and mrdd.synth.EXP_RATE > 0\n"
        "missing = [name for name in mrdd.__all__ if getattr(mrdd, name, None) is None]\n"
        "assert not missing, missing\n"
        "star = {}\n"
        "exec('from mrdd import *', star)\n"
        "assert all(star[name] is getattr(mrdd, name) for name in mrdd.__all__)\n"
        "try:\n"
        "    mrdd.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('mrdd.no_such_name resolved')\n"
    )
    for script in (plotdata, namespace):
        proc = run_fresh(script)
        assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(capsys):
    # a name the package no longer exports fails here; the first line printed
    # is the verdict the example's comment states
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "Verdict.USE_BOUNDS"


# points where _norm_pdf is checked bit for bit against scipy.stats.norm.pdf
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


def test_norm_pdf_bitwise_equal_scipy_stats():
    from scipy import stats

    from mrdd.synth import _norm_pdf

    assert_same_bits(_norm_pdf(NORMAL_GRID), stats.norm.pdf(NORMAL_GRID))
    # the oracle passes floats
    for value in NORMAL_GRID[::997].tolist() + [0.0, -0.0, 38.5, -38.5]:
        assert_same_bits(_norm_pdf(value), stats.norm.pdf(value))


def test_ndtr_accurate():
    # 0.5 * erfc(-x / sqrt 2), which the simulators and the oracle evaluate.
    # It matched scipy's ndtr bit for bit on half of |x| <= 8 and was at most
    # 106 ulps off there. In the lower tail the rounding of x / sqrt 2 costs
    # about x^2 eps relative for both, so on |x| <= 37 each is compared with
    # 40 digits by its worst point: 1,513 ulps here against scipy's 2,015.
    import mpmath
    from scipy import special

    from mrdd.synth import _ndtr

    near = np.linspace(-8.0, 8.0, 160_001)
    reference = special.ndtr(near)
    assert np.max(np.abs(_ndtr(near) - reference) / np.spacing(reference)) <= 128

    xs = np.linspace(-37.0, 37.0, 7_401)
    with mpmath.workdps(40):
        exact = [mpmath.ncdf(x) for x in xs.tolist()]

        def worst_ulps(values):
            return max(abs(mpmath.mpf(v) - e) / math.ulp(float(e)) for v, e in zip(values.tolist(), exact))

        assert worst_ulps(_ndtr(xs)) <= worst_ulps(special.ndtr(xs))
    assert_same_bits(_ndtr(np.array([np.nan, -np.inf, np.inf])), np.array([np.nan, 0.0, 1.0]))
    # the oracle passes floats, and takes a float of the 0-d result
    assert _ndtr(-0.5).shape == () and float(_ndtr(-0.5)) == special.ndtr(-0.5)


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
