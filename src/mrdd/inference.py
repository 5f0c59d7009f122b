"""Bootstrap distributions of boundary statistics and interval confidence sets.

One bootstrap pass per analysis draws every boundary fit, and each tested
covariate's two mean fits, on the same replicates; the density and balance
tests and both r modes of the bounds read their own columns of it. Two r
modes are supported: ``fixed`` holds the density ratio at its full-sample
estimate across replicates (isolating mean-estimation noise), ``random``
re-estimates the densities per replicate with the full-sample bandwidths.
Confidence intervals for the partially identified estimand expand the
estimated interval by a data-dependent critical multiplier that
interpolates between the one-sided and two-sided normal quantiles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._bootstrap import BootstrapConfig, Plan, build_plan, check_alpha, drop_failed, run_replicates
from .boundary import BoundaryEstimates, Dataset, FitConfig, sample_estimates
from .bounds import BoundsResult, TypeAssumption, crude_bounds, crude_interval
from .errors import InvalidInputs, UnknownCovariate
from .localfit import sample_sd


class RMode(enum.Enum):
    FIXED = "fixed"
    RANDOM = "random"


@dataclass(frozen=True)
class BoundaryDraws:
    """Full-sample estimates plus the replicate matrix of one bootstrap pass.

    ``draws`` has a row per replicate and the columns (mu_plus, mu_minus,
    f_plus, f_minus), then the right and left boundary means of each
    covariate in ``covariates``, which pairs its name with its full-sample
    jump. A fit that failed on a replicate leaves a NaN cell; each consumer
    drops and counts the rows its own columns lost.
    """

    point: BoundaryEstimates
    draws: np.ndarray
    covariates: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class BootstrapBounds:
    point: BoundsResult
    replicates: np.ndarray  # (b_ok, 2) of (lower, upper)
    se_lower: float
    se_upper: float
    n_failed: int  # replicates on which one of the four boundary fits failed


def bootstrap_boundary_replicates(
    data: Dataset,
    cfg: BootstrapConfig,
    fit: FitConfig = FitConfig(),
    covariates: tuple[str, ...] = (),
) -> BoundaryDraws:
    """Row-resample the data ``cfg.b`` times and re-estimate the boundary:
    the draws of ``boundary_pass``, without its engine plan."""
    return boundary_pass(data, cfg, fit, covariates)[0]


def boundary_pass(
    data: Dataset,
    cfg: BootstrapConfig,
    fit: FitConfig = FitConfig(),
    covariates: tuple[str, ...] = (),
) -> tuple[BoundaryDraws, Plan]:
    """Row-resample the data ``cfg.b`` times and re-estimate the boundary.

    One engine plan evaluates the four boundary fits and, for each name in
    ``covariates`` (UnknownCovariate if absent), its two mean fits on the
    outcome's windows: on the sample, for the point estimates and jumps,
    then on every replicate. The boundary columns are the same bits
    whichever covariates are named. Bandwidths are selected once on the full
    sample, and replicate randomness is keyed by (seed, replicate index).

    The plan is returned beside the draws, for the sample's other fits on
    its windows. It holds a few moment rows per window row, about 4.8 MB on
    66k window rows against 6 KB of draws at B = 200, so it is not part of
    ``BoundaryDraws``: a caller keeps it only while it reads those fits.
    """
    for name in covariates:
        if name not in data.covariates:
            raise UnknownCovariate(f"covariate {name!r} not present; have {sorted(data.covariates)}")
    fit = fit.resolved(data.xs, data.cutoff)
    columns = (data.ys, *(data.covariates[name] for name in covariates))
    plan = build_plan(data.xs, data.cutoff, fit, columns)
    point, row = sample_estimates(plan, fit)
    # a constant covariate has no jump; its two moment solves may leave one of rounding size
    jumps = tuple(
        (name, 0.0 if np.ptp(data.covariates[name]) == 0 else float(row[4 + 2 * j] - row[5 + 2 * j]))
        for j, name in enumerate(covariates)
    )
    draws = run_replicates(plan, cfg.b, cfg.seed, cfg.workers)
    return BoundaryDraws(point=point, draws=draws, covariates=jumps), plan


def bounds_from_draws(
    draws: BoundaryDraws,
    assumption: TypeAssumption,
    r_mode: RMode,
    y_low: float,
    y_high: float,
) -> BootstrapBounds:
    """Evaluate the requested interval on the point estimate and every draw.

    The replicates on which all four boundary fits succeeded go through
    ``crude_interval`` as columns, in one call; in fixed mode every row
    keeps the point's density ratio, in random mode each row has its own.
    The endpoint SEs are the replicates' sample standard deviations. A
    missing outcome range raises InvalidOutcomeRange, and more than 10%
    failed replicates TooManyFailedReplicates.
    """
    point = crude_bounds(draws.point.mu_plus, draws.point.mu_minus, draws.point.r, y_low, y_high, assumption)
    boundary, n_failed = drop_failed(draws.draws[:, :4], "boundary")
    mu_plus, mu_minus, f_plus, f_minus = boundary.T
    if r_mode is RMode.FIXED:
        f_plus, f_minus = draws.point.f_plus, draws.point.f_minus
    reps = np.column_stack(crude_interval(mu_plus, mu_minus, f_minus / f_plus, y_low, y_high, assumption))
    return BootstrapBounds(point, reps, sample_sd(reps[:, 0]), sample_sd(reps[:, 1]), n_failed)


@dataclass(frozen=True)
class IntervalCI:
    lo: float
    hi: float
    c_bar: float


def imbens_manski_ci(
    lower_hat: float,
    upper_hat: float,
    se_lower: float,
    se_upper: float,
    alpha: float = 0.05,
) -> IntervalCI:
    """Confidence interval for a partially identified parameter.

    Returns [lower_hat - c * se_lower, upper_hat + c * se_upper] where c
    solves Phi(c + width / max(se)) - Phi(-c) = 1 - alpha by bisection to
    1e-6. The multiplier lives between the one-sided quantile (wide
    identified sets) and the two-sided quantile (point identification).
    Degenerate SEs (both zero) return the identified set itself. A level
    outside (0, MAX_ALPHA] raises InvalidInputs: above 0.5 the multiplier
    would be negative and the interval would shrink inside the set.
    """
    check_alpha(alpha, InvalidInputs)
    if se_lower < 0 or se_upper < 0 or not np.isfinite([se_lower, se_upper]).all():
        raise InvalidInputs("standard errors must be finite and nonnegative")
    if not (lower_hat <= upper_hat):
        raise InvalidInputs(f"need lower_hat <= upper_hat, got [{lower_hat}, {upper_hat}]")
    normal = NormalDist()
    # 1 - alpha rounds to 1 for alpha below 2**-53, whose quantile inv_cdf refuses
    z_one, z_two = (normal.inv_cdf(p) if p < 1.0 else math.inf for p in (1.0 - alpha, 1.0 - alpha / 2.0))
    se_max = max(se_lower, se_upper)
    if se_max == 0.0:
        c_bar = z_one if upper_hat > lower_hat else z_two
        return IntervalCI(lower_hat, upper_hat, c_bar)
    width_ratio = (upper_hat - lower_hat) / se_max

    def gap(c):
        return normal.cdf(c + width_ratio) - normal.cdf(-c) - (1.0 - alpha)

    lo_c, hi_c = z_one, z_two
    if gap(lo_c) >= 0.0:
        c_bar = lo_c
    else:
        for _ in range(200):
            mid = 0.5 * (lo_c + hi_c)
            if hi_c - lo_c < 1e-6:
                break
            if gap(mid) >= 0.0:
                hi_c = mid
            else:
                lo_c = mid
        c_bar = 0.5 * (lo_c + hi_c)
    return IntervalCI(
        lo=float(lower_hat - c_bar * se_lower),
        hi=float(upper_hat + c_bar * se_upper),
        c_bar=float(c_bar),
    )
