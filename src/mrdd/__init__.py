"""Manipulation-robust regression discontinuity analysis.

Boundary estimation of one-sided means and densities, the sequential
density/balance diagnostic protocol, partial-identification bounds (crude,
sharp, fuzzy, covariate-tightened) with bootstrap inference, and synthetic
data generators with analytically known answers.
"""

from .boundary import (
    Bandwidths,
    BoundaryEstimates,
    Dataset,
    FitConfig,
    SideCounts,
    estimate_boundary,
)
from .bounds import (
    BoundsResult,
    BoundsStatus,
    TypeAssumption,
    clamp_interval,
    covariate_bounds,
    crude_bounds,
    crude_interval,
    fuzzy_bounds,
    sharp_type2_bounds,
)
from .diagnostics import (
    ProtocolOutcome,
    TestResult,
    Verdict,
    balance_test,
    density_discontinuity_test,
    run_sequential_protocol,
)
from .inference import (
    BootstrapBounds,
    BootstrapConfig,
    BoundaryDraws,
    IntervalCI,
    RMode,
    bootstrap_boundary_replicates,
    bounds_from_draws,
    imbens_manski_ci,
)
from .localfit import (
    FitSpec,
    KernelKind,
    LocalFitResult,
    Side,
    boundary_density,
    density_curve,
    kernel_weight,
    local_poly_fit,
    rot_bandwidth,
)
from .synth import (
    OracleRow,
    TypedSample,
    gen_appendix_d,
    gen_counterexample_e,
    gen_typed,
    oracle_appendix_d,
    write_typed_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Bandwidths",
    "BootstrapBounds",
    "BootstrapConfig",
    "BoundaryDraws",
    "BoundaryEstimates",
    "BoundsResult",
    "BoundsStatus",
    "Dataset",
    "FitConfig",
    "FitSpec",
    "IntervalCI",
    "KernelKind",
    "LocalFitResult",
    "OracleRow",
    "ProtocolOutcome",
    "RMode",
    "Side",
    "SideCounts",
    "TestResult",
    "TypeAssumption",
    "TypedSample",
    "Verdict",
    "balance_test",
    "bootstrap_boundary_replicates",
    "boundary_density",
    "bounds_from_draws",
    "clamp_interval",
    "covariate_bounds",
    "crude_bounds",
    "crude_interval",
    "density_curve",
    "density_discontinuity_test",
    "estimate_boundary",
    "fuzzy_bounds",
    "gen_appendix_d",
    "gen_counterexample_e",
    "gen_typed",
    "imbens_manski_ci",
    "kernel_weight",
    "local_poly_fit",
    "oracle_appendix_d",
    "rot_bandwidth",
    "run_sequential_protocol",
    "sharp_type2_bounds",
    "write_typed_csv",
]
