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
from scipy import stats

from ._bootstrap import (
    BALANCE_TEST_STREAM,
    DENSITY_TEST_STREAM,
    DensityFit,
    MeanFit,
    check_bootstrap_config,
    drop_failed,
    run_replicates,
)
from .boundary import Dataset, FitConfig
from .errors import InvalidConfig, UnknownCovariate
from .localfit import FitSpec, Side, _boundary_density_detail, _local_fit_arrays

DEFAULT_B = 500
DEFAULT_ALPHA = 0.05


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
class ProtocolConfig:
    alpha: float = DEFAULT_ALPHA
    b: int = DEFAULT_B
    seed: int = 0
    fit: FitConfig = FitConfig()
    covariates: tuple[str, ...] | None = None  # None -> every covariate in the data
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidConfig(f"alpha must lie strictly in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class ProtocolOutcome:
    density: TestResult
    balance: tuple[tuple[str, TestResult], ...] | None
    verdict: Verdict


def _two_sided_p(t: float) -> float:
    return float(2.0 * stats.norm.sf(abs(t)))


def _bootstrap_jump_test(data, point, fits, b, seed, stream, workers):
    """Shared test core: full-sample jump / bootstrap SE, normal reference.

    ``fits`` is the (right, left) pair whose difference is the jump.
    """
    values, n_failed = run_replicates(data.xs, data.cutoff, fits, b, seed, stream, workers)
    values = drop_failed(values, n_failed, "jump-test")
    reps = values[:, 0] - values[:, 1]
    se = float(np.std(reps, ddof=1))
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
    config: FitConfig = FitConfig(),
    b: int = DEFAULT_B,
    seed: int = 0,
    workers: int = 1,
) -> TestResult:
    """Two-sided test of a density jump at the cutoff.

    The statistic is (f_plus - f_minus) / SE with SE the bootstrap standard
    deviation of the estimated jump over ``b`` row resamples; the p-value
    uses the standard normal reference.
    """
    check_bootstrap_config(b, seed)
    c = data.cutoff
    bw = config.bandwidths.resolved(data.xs, c)
    spec_l = FitSpec(config.density_order, bw.dens_left, config.kernel, Side.LEFT)
    spec_r = FitSpec(config.density_order, bw.dens_right, config.kernel, Side.RIGHT)
    # the discreteness heuristic applies to the raw sample only; bootstrap
    # resamples duplicate values by construction
    f_minus, _ = _boundary_density_detail(data.xs, c, spec_l)
    f_plus, _ = _boundary_density_detail(data.xs, c, spec_r)
    return _bootstrap_jump_test(
        data, f_plus - f_minus, (DensityFit(spec_r), DensityFit(spec_l)), b, seed,
        (DENSITY_TEST_STREAM,), workers,
    )


def balance_test(
    data: Dataset,
    covariate: str,
    config: FitConfig = FitConfig(),
    b: int = DEFAULT_B,
    seed: int = 0,
    workers: int = 1,
) -> TestResult:
    """Two-sided test of a jump in a pre-determined covariate's boundary mean."""
    check_bootstrap_config(b, seed)
    if covariate not in data.covariates:
        raise UnknownCovariate(
            f"covariate {covariate!r} not present; have {sorted(data.covariates)}"
        )
    c = data.cutoff
    bw = config.bandwidths.resolved(data.xs, c)
    spec_l = FitSpec(config.mean_order, bw.mean_left, config.kernel, Side.LEFT)
    spec_r = FitSpec(config.mean_order, bw.mean_right, config.kernel, Side.RIGHT)
    ws = data.covariates[covariate]
    cov_index = sorted(data.covariates).index(covariate)
    w_minus = _local_fit_arrays(data.xs, ws, c, spec_l).coefficients[0]
    w_plus = _local_fit_arrays(data.xs, ws, c, spec_r).coefficients[0]
    return _bootstrap_jump_test(
        data, w_plus - w_minus, (MeanFit(spec_r, ws), MeanFit(spec_l, ws)), b, seed,
        (BALANCE_TEST_STREAM, cov_index), workers,
    )


def run_sequential_protocol(data: Dataset, config: ProtocolConfig = ProtocolConfig()) -> ProtocolOutcome:
    """Density test first; balance tests only if the density test accepts.

    Verdicts: density rejected -> UseBounds (balance skipped entirely);
    density accepted and all balance tests accepted -> PointIdentified;
    density accepted but some covariate imbalanced -> DesignSuspect.
    """
    check_bootstrap_config(config.b, config.seed)
    density = density_discontinuity_test(
        data, config.fit, config.b, config.seed, config.workers
    )
    if density.p_value < config.alpha:
        return ProtocolOutcome(density=density, balance=None, verdict=Verdict.USE_BOUNDS)
    names = config.covariates if config.covariates is not None else tuple(sorted(data.covariates))
    balance = tuple(
        (name, balance_test(data, name, config.fit, config.b, config.seed, config.workers))
        for name in names
    )
    all_balanced = all(res.p_value >= config.alpha for _, res in balance)
    verdict = Verdict.POINT_IDENTIFIED if all_balanced else Verdict.DESIGN_SUSPECT
    return ProtocolOutcome(density=density, balance=balance, verdict=verdict)
