"""Bootstrap distributions of boundary statistics, the sequential diagnostic
protocol, and interval confidence sets.

One bootstrap pass per analysis draws every boundary fit, and each tested
covariate's two mean fits, on the same replicates, with the bandwidths
frozen at their full-sample values. This module alone reads its draw
matrix: the density and balance tests and the bounds read their own
columns, and each drops only the replicates its own fits lost.
The density test runs first: under the maintained manipulation
restrictions a smooth density implies point identification, and only then
are covariate balance tests a meaningful further check. The bounds come
in two r modes: fixed r holds the density ratio at its full-sample
estimate across replicates, random r re-estimates it per replicate.
Confidence intervals for the partially identified estimand expand the
estimated interval by a data-dependent multiplier between the one-sided
and two-sided normal quantiles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .boundary import (
    BootstrapConfig, BoundaryEstimates, Dataset, FitConfig, Plan, build_plan, check_alpha,
    run_replicates, sample_estimates,
)
from .bounds import BoundsResult, TypeAssumption, crude_bounds, crude_interval
from .errors import InvalidInputs, TooManyFailedReplicates
from .localfit import sample_sd

MAX_FAILURE_FRACTION = 0.10


def drop_failed(values: np.ndarray, what: str) -> tuple[np.ndarray, int]:
    """The rows of ``values`` without a NaN cell, and how many had one; more
    than MAX_FAILURE_FRACTION of them raise TooManyFailedReplicates."""
    failed = np.isnan(values).any(axis=1)
    n_failed = int(np.count_nonzero(failed))
    b = values.shape[0]
    if n_failed > MAX_FAILURE_FRACTION * b:
        raise TooManyFailedReplicates(
            f"{n_failed} of {b} {what} bootstrap replicates failed "
            f"(limit {MAX_FAILURE_FRACTION:.0%})"
        )
    return values[~failed], n_failed


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
    point_se: float  # of mu_plus - mu_minus, over the same replicates
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

    One engine plan, from ``build_plan``, evaluates the four boundary fits
    and, for each name in ``covariates``, its two mean fits on the
    outcome's windows: on the sample, for the point estimates and jumps,
    then on every replicate. The boundary columns are the same bits
    whichever covariates are named. The plan checks the columns and fills
    in the bandwidths once on the full sample, and replicate randomness is
    keyed by (seed, replicate index).

    The plan is returned beside the draws, for the sample's other fits on
    its windows. It holds a few moment rows per window row, about 4.8 MB on
    66k window rows against 6 KB of draws at B = 200, so it is not part of
    ``BoundaryDraws``: a caller keeps it only while it reads those fits.
    """
    plan = build_plan(data, fit, covariates)
    point, row = sample_estimates(plan)
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
    y_low: float,
    y_high: float,
) -> tuple[BootstrapBounds, BootstrapBounds]:
    """The requested interval on the point estimate and every draw, with a
    fixed and with a random density ratio: ``(fixed, random)``.

    The replicates on which all four boundary fits succeeded go through
    ``crude_interval`` as columns, both r modes in one call: first every
    row at the point's density ratio, then each row at its own. The
    endpoint SEs are each mode's replicates' sample standard deviations,
    and the point SE, shared, that of their mean jumps mu_plus - mu_minus.
    A missing outcome range raises InvalidOutcomeRange, and more than 10%
    failed replicates TooManyFailedReplicates.
    """
    point = crude_bounds(draws.point.mu_plus, draws.point.mu_minus, draws.point.r, y_low, y_high, assumption)
    boundary, n_failed = drop_failed(draws.draws[:, :4], "boundary")
    mu_plus, mu_minus, f_plus, f_minus = boundary.T
    k = mu_plus.size
    r = np.concatenate([np.full(k, draws.point.f_minus / draws.point.f_plus), f_minus / f_plus])
    ends = crude_interval(np.tile(mu_plus, 2), np.tile(mu_minus, 2), r, y_low, y_high, assumption)
    point_se = sample_sd(mu_plus - mu_minus)
    return tuple(
        BootstrapBounds(point, reps, sample_sd(reps[:, 0]), sample_sd(reps[:, 1]), point_se, n_failed)
        for reps in np.column_stack(ends).reshape(2, k, 2)
    )


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
            raise ValueError(f"p-value out of [0, 1]: {self.p_value}")


@dataclass(frozen=True)
class ProtocolOutcome:
    density: TestResult
    balance: tuple[tuple[str, TestResult], ...] | None
    verdict: Verdict


def _two_sided_p(t: float) -> float:
    # 2 Phi(-|t|) as one erfc, which keeps its digits far into the tail
    return math.erfc(abs(t) / math.sqrt(2.0))


def _jump_test(point, columns: np.ndarray, what: str) -> TestResult:
    """Full-sample jump over the bootstrap SD of the replicate jumps, normal reference.

    ``columns`` holds the (right, left) replicate columns whose difference is
    the jump, NaN where a fit failed.
    """
    values, n_failed = drop_failed(columns, what)
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


def _density_test(draws: BoundaryDraws) -> TestResult:
    be = draws.point
    return _jump_test(be.f_plus - be.f_minus, draws.draws[:, 2:4], "density-test")


def _balance_test(draws: BoundaryDraws, j: int) -> TestResult:
    name, jump = draws.covariates[j]
    return _jump_test(jump, draws.draws[:, 4 + 2 * j : 6 + 2 * j], f"{name!r} balance-test")


def protocol_from_draws(draws: BoundaryDraws, alpha: float) -> ProtocolOutcome:
    """Density test first; balance tests only if the density test accepts.

    Every test reads its columns of the one pass ``draws``, with a balance
    test per covariate of the pass. Verdicts: density rejected -> UseBounds
    (balance skipped entirely); density accepted and all balance tests
    accepted -> PointIdentified; otherwise DesignSuspect. A level outside
    (0, MAX_ALPHA], NaN included, raises InvalidInputs.
    """
    check_alpha(alpha, InvalidInputs)
    density = _density_test(draws)
    if density.p_value < alpha:
        return ProtocolOutcome(density=density, balance=None, verdict=Verdict.USE_BOUNDS)
    balance = tuple((name, _balance_test(draws, j)) for j, (name, _) in enumerate(draws.covariates))
    all_balanced = all(res.p_value >= alpha for _, res in balance)
    verdict = Verdict.POINT_IDENTIFIED if all_balanced else Verdict.DESIGN_SUSPECT
    return ProtocolOutcome(density=density, balance=balance, verdict=verdict)


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
