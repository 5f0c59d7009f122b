"""Bootstrap distributions of boundary statistics and interval confidence sets.

Two r modes are supported: ``fixed`` holds the density ratio at its
full-sample estimate across replicates (isolating mean-estimation noise),
``random`` re-estimates the densities per replicate with the full-sample
bandwidths. Confidence intervals for the partially identified estimand
expand the estimated interval by a data-dependent critical multiplier that
interpolates between the one-sided and two-sided normal quantiles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._bootstrap import (
    BOUNDS_STREAM,
    BootstrapConfig,
    DensityFit,
    MeanFit,
    drop_failed,
    run_replicates,
)
from .boundary import BoundaryEstimates, Dataset, FitConfig, estimate_boundary
from .bounds import BoundsResult, TypeAssumption, crude_bounds, crude_interval
from .errors import InvalidInputs, InvalidOutcomeRange
from .localfit import Side


class RMode(enum.Enum):
    FIXED = "fixed"
    RANDOM = "random"


@dataclass(frozen=True)
class BoundaryDraws:
    """Full-sample estimates plus the replicate matrix of boundary statistics.

    ``draws`` columns are (mu_plus, mu_minus, f_plus, f_minus); failed
    replicates have already been dropped.
    """

    point: BoundaryEstimates
    draws: np.ndarray
    n_failed: int


@dataclass(frozen=True)
class BootstrapBounds:
    point: BoundsResult
    replicates: np.ndarray  # (b_ok, 2) of (lower, upper)
    se_lower: float
    se_upper: float
    n_failed: int


def bootstrap_boundary_replicates(
    data: Dataset,
    cfg: BootstrapConfig,
    fit: FitConfig = FitConfig(),
) -> BoundaryDraws:
    """Row-resample the data ``cfg.b`` times and re-estimate the boundary.

    Bandwidths are selected once on the full sample and frozen across
    replicates, so replicate variation reflects sampling noise only.
    """
    fit = fit.resolved(data.xs, data.cutoff)
    point = estimate_boundary(data, fit)
    fits = (
        MeanFit(fit.mean_spec(Side.RIGHT), data.ys),
        MeanFit(fit.mean_spec(Side.LEFT), data.ys),
        DensityFit(fit.density_spec(Side.RIGHT)),
        DensityFit(fit.density_spec(Side.LEFT)),
    )
    values, n_failed = run_replicates(
        data.xs, data.cutoff, fits, cfg.b, cfg.seed, (BOUNDS_STREAM,), cfg.workers
    )
    draws = drop_failed(values, n_failed, "boundary")
    return BoundaryDraws(point=point, draws=draws, n_failed=n_failed)


def bounds_from_draws(
    draws: BoundaryDraws,
    assumption: TypeAssumption,
    r_mode: RMode,
    y_low: float,
    y_high: float,
) -> BootstrapBounds:
    """Evaluate the requested interval on the point estimate and every draw.

    The draws go through ``crude_interval`` as columns, in one call; in
    fixed mode every row keeps the point's density ratio.
    """
    point = crude_bounds(draws.point, y_low, y_high, assumption)
    mu_plus, mu_minus, f_plus, f_minus = draws.draws.T
    if r_mode is RMode.FIXED:
        f_plus, f_minus = draws.point.f_plus, draws.point.f_minus
    reps = np.column_stack(crude_interval(mu_plus, mu_minus, f_minus / f_plus, y_low, y_high, assumption))
    se_lower = float(np.std(reps[:, 0], ddof=1))
    se_upper = float(np.std(reps[:, 1], ddof=1))
    return BootstrapBounds(
        point=point,
        replicates=reps,
        se_lower=se_lower,
        se_upper=se_upper,
        n_failed=draws.n_failed,
    )


def bootstrap_bounds(
    data: Dataset,
    assumption: TypeAssumption,
    cfg: BootstrapConfig,
    fit: FitConfig = FitConfig(),
    r_mode: RMode = RMode.FIXED,
) -> BootstrapBounds:
    """Point interval plus bootstrap replicate intervals and endpoint SEs.

    Deterministic in (data, cfg, fit): replicate randomness is keyed by
    (seed, replicate index), and dropped replicates are counted (more than
    10% failures raises TooManyFailedReplicates). ``r_mode`` says whether
    the replicates keep the full-sample density ratio or their own.
    """
    if data.y_low is None or data.y_high is None:
        raise InvalidOutcomeRange("bounds need a declared outcome range (y_low, y_high)")
    draws = bootstrap_boundary_replicates(data, cfg, fit)
    return bounds_from_draws(draws, assumption, r_mode, data.y_low, data.y_high)


@dataclass(frozen=True)
class IntervalCI:
    lo: float
    hi: float
    alpha: float
    method: str
    se_lower: float
    se_upper: float
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
    Degenerate SEs (both zero) return the identified set itself.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputs(f"alpha must lie strictly in (0, 1), got {alpha}")
    if se_lower < 0 or se_upper < 0 or not np.isfinite([se_lower, se_upper]).all():
        raise InvalidInputs("standard errors must be finite and nonnegative")
    if not (lower_hat <= upper_hat):
        raise InvalidInputs(f"need lower_hat <= upper_hat, got [{lower_hat}, {upper_hat}]")
    z_one = float(special.ndtri(1.0 - alpha))
    z_two = float(special.ndtri(1.0 - alpha / 2.0))
    se_max = max(se_lower, se_upper)
    if se_max == 0.0:
        c_bar = z_one if upper_hat > lower_hat else z_two
        return IntervalCI(lower_hat, upper_hat, alpha, "imbens-manski", se_lower, se_upper, c_bar)
    width_ratio = (upper_hat - lower_hat) / se_max

    def gap(c):
        return special.ndtr(c + width_ratio) - special.ndtr(-c) - (1.0 - alpha)

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
        alpha=alpha,
        method="imbens-manski",
        se_lower=se_lower,
        se_upper=se_upper,
        c_bar=float(c_bar),
    )
