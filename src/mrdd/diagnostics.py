"""Density discontinuity test, covariate balance test, and the sequential protocol.

The density test asks whether the running variable's density jumps at the
cutoff; under the maintained manipulation restrictions a smooth density
implies point identification, so the test is run first. Only when it
accepts are covariate balance tests meaningful as a further design check,
hence the sequential rather than simultaneous protocol.

Standard errors come from a nonparametric row bootstrap with replicate-keyed
randomness; bandwidths are frozen at their full-sample values across
replicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._bootstrap import (
    BALANCE_TEST_STREAM,
    DENSITY_TEST_STREAM,
    BootstrapConfig,
    DensityFit,
    MeanFit,
    drop_failed,
    run_replicates,
)
from .boundary import Dataset, FitConfig
from .errors import InvalidConfig, UnknownCovariate
from .localfit import Side, boundary_density, local_poly_fit, sample_sd


class Verdict(enum.Enum):
    USE_BOUNDS = "UseBounds"
    POINT_IDENTIFIED = "PointIdentified"
    DESIGN_SUSPECT = "DesignSuspect"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str
    replications: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise InvalidConfig(f"p-value out of [0, 1]: {self.p_value}")


@dataclass(frozen=True)
class ProtocolOutcome:
    density: TestResult
    balance: tuple[tuple[str, TestResult], ...] | None
    verdict: Verdict


def _two_sided_p(t: float) -> float:
    return float(2.0 * special.ndtr(-abs(t)))


def _bootstrap_jump_test(data, point, fits, boot: BootstrapConfig, stream):
    """Shared test core: full-sample jump / bootstrap SE, normal reference.

    ``fits`` is the (right, left) pair whose difference is the jump.
    """
    values, n_failed = run_replicates(data.xs, data.cutoff, fits, boot.b, boot.seed, stream, boot.workers)
    values = drop_failed(values, n_failed, "jump-test")
    reps = values[:, 0] - values[:, 1]
    se = sample_sd(reps)
    warnings: tuple[str, ...] = ()
    if n_failed:
        warnings += (f"{n_failed} bootstrap replicates failed and were dropped",)
    if point == 0.0:
        statistic = 0.0
    elif se > 0.0 and np.isfinite(se):
        statistic = float(point / se)
    else:
        warnings += ("degenerate bootstrap SE; p-value set to 1",)
        return TestResult(0.0, 1.0, "bootstrap", reps.size, warnings)
    return TestResult(statistic, _two_sided_p(statistic), "bootstrap", reps.size, warnings)


def density_discontinuity_test(
    data: Dataset,
    fit: FitConfig = FitConfig(),
    boot: BootstrapConfig = BootstrapConfig(),
) -> TestResult:
    """Two-sided test of a density jump at the cutoff.

    The statistic is (f_plus - f_minus) / SE with SE the bootstrap standard
    deviation of the estimated jump over ``boot.b`` row resamples; the
    p-value uses the standard normal reference.
    """
    c = data.cutoff
    fit = fit.resolved(data.xs, c)
    spec_l, spec_r = fit.density_spec(Side.LEFT), fit.density_spec(Side.RIGHT)
    # the discreteness heuristic applies to the raw sample only; bootstrap
    # resamples duplicate values by construction
    f_minus, _ = boundary_density(data.xs, c, spec_l)
    f_plus, _ = boundary_density(data.xs, c, spec_r)
    return _bootstrap_jump_test(
        data, f_plus - f_minus, (DensityFit(spec_r), DensityFit(spec_l)), boot, (DENSITY_TEST_STREAM,)
    )


def balance_test(
    data: Dataset,
    covariate: str,
    fit: FitConfig = FitConfig(),
    boot: BootstrapConfig = BootstrapConfig(),
) -> TestResult:
    """Two-sided test of a jump in a pre-determined covariate's boundary mean."""
    if covariate not in data.covariates:
        raise UnknownCovariate(
            f"covariate {covariate!r} not present; have {sorted(data.covariates)}"
        )
    c = data.cutoff
    fit = fit.resolved(data.xs, c)
    spec_l, spec_r = fit.mean_spec(Side.LEFT), fit.mean_spec(Side.RIGHT)
    ws = data.covariates[covariate]
    cov_index = sorted(data.covariates).index(covariate)
    w_minus = local_poly_fit(data.xs, ws, c, spec_l).coefficients[0]
    w_plus = local_poly_fit(data.xs, ws, c, spec_r).coefficients[0]
    return _bootstrap_jump_test(
        data, w_plus - w_minus, (MeanFit(spec_r, ws), MeanFit(spec_l, ws)), boot,
        (BALANCE_TEST_STREAM, cov_index),
    )


def run_sequential_protocol(
    data: Dataset,
    boot: BootstrapConfig = BootstrapConfig(),
    fit: FitConfig = FitConfig(),
    covariates: tuple[str, ...] | None = None,
) -> ProtocolOutcome:
    """Density test first; balance tests only if the density test accepts.

    Verdicts: density rejected -> UseBounds (balance skipped entirely);
    density accepted and all balance tests accepted -> PointIdentified;
    density accepted but some covariate imbalanced -> DesignSuspect.
    ``covariates`` names the balance tests, every covariate in the data when
    None. Rule-of-thumb bandwidths are computed once and shared by every test.
    """
    fit = fit.resolved(data.xs, data.cutoff)
    density = density_discontinuity_test(data, fit, boot)
    if density.p_value < boot.alpha:
        return ProtocolOutcome(density=density, balance=None, verdict=Verdict.USE_BOUNDS)
    names = covariates if covariates is not None else tuple(sorted(data.covariates))
    balance = tuple((name, balance_test(data, name, fit, boot)) for name in names)
    all_balanced = all(res.p_value >= boot.alpha for _, res in balance)
    verdict = Verdict.POINT_IDENTIFIED if all_balanced else Verdict.DESIGN_SUSPECT
    return ProtocolOutcome(density=density, balance=balance, verdict=verdict)
