"""Manipulation-robust regression discontinuity analysis.

Boundary estimation of one-sided means and densities, the sequential
density/balance diagnostic protocol, partial-identification bounds (crude,
sharp, fuzzy) with bootstrap inference, and synthetic data generators with
analytically known answers.

``import mrdd`` loads none of the package's modules: each public name, and
each module, is imported when it is first read (PEP 562), so a command loads
only the code it runs.
"""

import sys

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_EXPORTS = {
    "BootstrapConfig": "boundary",
    "BoundaryEstimates": "boundary",
    "Dataset": "boundary",
    "FitConfig": "boundary",
    "estimate_boundary": "boundary",
    "BoundsResult": "bounds",
    "BoundsStatus": "bounds",
    "TypeAssumption": "bounds",
    "clamp_interval": "bounds",
    "crude_bounds": "bounds",
    "crude_interval": "bounds",
    "fuzzy_bounds": "bounds",
    "sharp_type2_bounds": "bounds",
    "BootstrapBounds": "inference",
    "BoundaryDraws": "inference",
    "IntervalCI": "inference",
    "ProtocolOutcome": "inference",
    "TestResult": "inference",
    "Verdict": "inference",
    "bootstrap_boundary_replicates": "inference",
    "bounds_from_draws": "inference",
    "imbens_manski_ci": "inference",
    "FitSpec": "localfit",
    "KernelKind": "localfit",
    "LocalFitResult": "localfit",
    "Side": "localfit",
    "boundary_density": "localfit",
    "density_curve": "localfit",
    "kernel_weight": "localfit",
    "local_poly_fit": "localfit",
    "rot_bandwidth": "localfit",
    "OracleRow": "synth",
    "TypedSample": "synth",
    "gen_appendix_d": "synth",
    "gen_counterexample_e": "synth",
    "gen_typed": "synth",
    "oracle_appendix_d": "synth",
    "write_typed_csv": "synth",
}

#: The modules an attribute read imports, such as ``mrdd.inference``: those
#: of the public names, and the error classes.
_MODULES = (*sorted(set(_EXPORTS.values())), "errors")

__all__ = sorted(_EXPORTS)


def _load(module: str):
    """``mrdd.<module>``, imported through ``__import__``, which ``-X
    importtime`` reports and ``importlib.import_module`` does not."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _MODULES:
        return _load(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_EXPORTS[name]), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
