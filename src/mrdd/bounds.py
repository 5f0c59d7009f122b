"""Partial-identification bounds for the cutoff treatment effect.

Each kind of bound has one entry point. ``crude_bounds`` needs only the
five boundary statistics, the outcome range and a ``TypeAssumption``; it
evaluates ``crude_interval``, which also takes arrays, so a bootstrap's
replicates go through the same formulas in one call. ``sharp_type2_bounds``,
for the one-sided precise manipulation model, additionally trims the
right-boundary outcome distribution, given as weights and outcomes, and
scans the counterfactual density value z over [f_minus, f_plus].
``fuzzy_bounds`` bounds the ratio estimand of a fuzzy design, and
``covariate_bounds`` intersects per-stratum intervals.

The formulas return the interval they define, even where it leaves the
logical range [y_low - y_high, y_high - y_low] of an effect; clipping a
reported interval to that range is the caller's job, through
``clamp_interval``. All operations are pure; the z-grid scan is vectorised
and its result does not depend on evaluation order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryEstimates
from .errors import (
    EmptyInput,
    EmptyWindow,
    InvalidConfig,
    InvalidGrid,
    InvalidOutcomeRange,
    MixedTargets,
)

#: Estimated r above 1 + this tolerance refutes the one-sided sorting model.
R_REFUTATION_TOLERANCE = 0.02
#: Default number of z-grid points for the sharp scan (endpoints included).
DEFAULT_GRID_SIZE = 201


class TypeAssumption(enum.Enum):
    """Which manipulation-behaviour model the interval is computed under.

    TYPE2: one-sided precise manipulation with one-sided unit sorting; the
    two-branch hull of types 3 and 4.
    TYPE3: the union population of assigned-near and manipulated-near units
    (imprecise one-sided sorting); width (1 - r)(y_high - y_low).
    TYPE4: non-manipulators at the cutoff (sorting-free precise
    manipulation); width (1/r - 1)(y_high - y_low).
    MIXED: the type-share weighted effect when behaviour types mix; the same
    interval as TYPE2 under another target label.
    """

    TYPE2 = "type2"
    TYPE3 = "type3"
    TYPE4 = "type4"
    MIXED = "mixed"


class BoundsStatus(enum.Enum):
    INFORMATIVE = "Informative"
    REFUTED = "Refuted"
    DEGENERATE = "Degenerate"


TARGET_LABELS = {
    TypeAssumption.TYPE2: "E[Y(1)-Y(0) | X*=c]",
    TypeAssumption.TYPE3: "E[Y(1)-Y(0) | {X*=c} or {X>X*, X=c}]",
    TypeAssumption.TYPE4: "E[Y(1)-Y(0) | X*=c, X=X*]",
    TypeAssumption.MIXED: "sum_t pi_t * theta_t / sum_t pi_t (type-share weighted effect)",
}

FUZZY_TARGET_LABEL = "(E[Y|X*=c+]-E[Y|X*=c-]) / (E[D|X*=c+]-E[D|X*=c-])"


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper: float
    target: str
    assumption: TypeAssumption
    status: BoundsStatus
    note: str | None = None


@dataclass(frozen=True)
class TrimmingCurve:
    """The sharp-scan ingredients sampled on the z grid.

    ``tau`` is the implied manipulated share 1 - z/f_plus; ``g_low``/``g_high``
    are the extreme trimmed means of the right-boundary outcome distribution
    at that share; ``theta_low``/``theta_high`` are the per-z interval ends.
    """

    z_grid: np.ndarray
    tau: np.ndarray
    g_low: np.ndarray
    g_high: np.ndarray
    theta_low: np.ndarray
    theta_high: np.ndarray


def _check_range(y_low: float | None, y_high: float | None) -> None:
    if y_low is None or y_high is None:
        raise InvalidOutcomeRange("bounds need a declared outcome range (y_low, y_high)")
    if not (np.isfinite(y_low) and np.isfinite(y_high)):
        raise InvalidOutcomeRange("outcome range must be finite")
    if y_low > y_high:
        raise InvalidOutcomeRange(f"y_low {y_low} > y_high {y_high}")


def _refutation(r: float) -> tuple[BoundsStatus, str | None]:
    """Refuted, with a note, when the density ratio r exceeds one beyond
    tolerance; Informative otherwise."""
    if r <= 0:
        raise InvalidConfig(f"density ratio must be positive, got {r}")
    if r > 1.0 + R_REFUTATION_TOLERANCE:
        return BoundsStatus.REFUTED, (
            f"estimated density ratio r={r:.4f} exceeds 1 beyond tolerance "
            f"{R_REFUTATION_TOLERANCE}; the one-sided sorting restriction "
            "f(c-) <= f(c+) looks violated"
        )
    return BoundsStatus.INFORMATIVE, None


def clamp_interval(lower: float, upper: float, y_low: float, y_high: float):
    """Clip an effect interval to the logical range [y_low - y_high, y_high - y_low].

    Returns ``(lower, upper, clamped)``, where ``clamped`` says whether
    either end moved.
    """
    lo_cap, hi_cap = y_low - y_high, y_high - y_low
    new_lower = min(max(lower, lo_cap), hi_cap)
    new_upper = max(min(upper, hi_cap), lo_cap)
    return new_lower, new_upper, (new_lower != lower or new_upper != upper)


def _snap_degenerate(lower, upper, y_low, y_high):
    """Collapse floating-point-level crossings (exact at r = 1 algebraically), elementwise."""
    scale = max(1.0, abs(y_low), abs(y_high))
    crossed = (upper < lower) & (lower <= upper + 1e-9 * scale)
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (lower + upper)
    return np.where(crossed, mid, lower), np.where(crossed, mid, upper)


def crude_interval(mu_plus, mu_minus, r, y_low: float, y_high: float, assumption: TypeAssumption):
    """The crude interval's (lower, upper) under ``assumption``, elementwise.

    ``mu_plus``, ``mu_minus`` and the density ratio ``r`` may be scalars or
    arrays of one shape; r above one is evaluated at one. Branch 1 scales
    the left mean by r, branch 2 the right one by 1/r:

        l1 = (mu+ - yU) - r (mu- - yU)      l2 = (mu+ - yU)/r - (mu- - yU)

    and u1, u2 likewise with yL. Type 3 takes branch 1, type 4 branch 2,
    and type 2 and the mixture the hull [min(l1, l2), max(u1, u2)], with
    Python's ``min``/``max`` tie rules.
    """
    _check_range(y_low, y_high)
    if np.any(r <= 0):
        raise InvalidConfig(f"density ratio must be positive, got {np.min(r)}")
    r = np.where(1.0 < r, 1.0, r)
    # overflow to inf and inf - inf = nan pass silently, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        l1 = (mu_plus - y_high) - r * (mu_minus - y_high)
        l2 = (mu_plus - y_high) / r - (mu_minus - y_high)
        u1 = (mu_plus - y_low) - r * (mu_minus - y_low)
        u2 = (mu_plus - y_low) / r - (mu_minus - y_low)
    if assumption is TypeAssumption.TYPE3:
        lower, upper = l1, u1
    elif assumption is TypeAssumption.TYPE4:
        lower, upper = l2, u2
    else:
        lower, upper = np.where(l2 < l1, l2, l1), np.where(u2 > u1, u2, u1)
    return _snap_degenerate(lower, upper, y_low, y_high)


def crude_bounds(
    be: BoundaryEstimates, y_low: float, y_high: float, assumption: TypeAssumption
) -> BoundsResult:
    """``crude_interval`` at the boundary estimates, with target and status."""
    lower, upper = crude_interval(be.mu_plus, be.mu_minus, be.r, y_low, y_high, assumption)
    status, note = _refutation(be.r)
    return BoundsResult(
        lower=float(lower),
        upper=float(upper),
        target=TARGET_LABELS[assumption],
        assumption=assumption,
        status=status,
        note=note,
    )


def binary_sharp_gfuncs(mu_plus: float, tau: float) -> tuple[float, float]:
    """Closed-form extreme trimmed means for a binary outcome.

    g_low = max{0, (mu+ - (1 - tau)) / tau} and g_high = min{1, mu+ / tau}
    for tau > 0; the vacuous tau = 0 case returns (0, 1).
    """
    if not (0.0 <= mu_plus <= 1.0):
        raise InvalidConfig(f"mu_plus must lie in [0, 1], got {mu_plus}")
    if not (0.0 <= tau <= 1.0):
        raise InvalidConfig(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return 0.0, 1.0
    g_low = max(0.0, (mu_plus - (1.0 - tau)) / tau)
    g_high = min(1.0, mu_plus / tau)
    return g_low, g_high


def _lower_partial_sums(cum, cum_y, y_sorted, masses):
    """Outcome mass carried by the lowest ``masses`` of the distribution.

    The atom straddling each mass boundary enters fractionally.
    """
    ks = np.searchsorted(cum, masses, side="left")
    idx = np.minimum(ks, y_sorted.size - 1)
    prev = np.maximum(ks - 1, 0)
    below = np.where(ks > 0, cum_y[prev], 0.0)
    below_mass = np.where(ks > 0, cum[prev], 0.0)
    return below + (masses - below_mass) * y_sorted[idx]


def weighted_trimmed_means(ys, weights, tau, y_low: float, y_high: float):
    """Extreme means of a tau-mass sub-population of a weighted sample.

    The sample is sorted by outcome; the lowest (highest) mass tau is taken,
    fractionally weighting the boundary observation, and averaged. tau = 0
    returns the vacuous (y_low, y_high) pair. Vectorised over tau.
    """
    scalar = np.ndim(tau) == 0
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(taus < -1e-12) or np.any(taus > 1 + 1e-12):
        raise InvalidConfig("tau values must lie in [0, 1]")
    taus = np.clip(taus, 0.0, 1.0)
    ys = np.asarray(ys, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0
    ys, weights = ys[keep], weights[keep]
    if ys.size == 0:
        raise EmptyWindow("no positive-weight observations in the trimming window")
    order = np.argsort(ys, kind="stable")
    y_sorted = ys[order]
    w_sorted = weights[order] / weights.sum()
    cum = np.cumsum(w_sorted)
    cum_y = np.cumsum(w_sorted * y_sorted)
    total_y = cum_y[-1]

    pos = taus > 0.0
    safe = np.where(pos, taus, 1.0)
    g_low = np.where(
        pos,
        _lower_partial_sums(cum, cum_y, y_sorted, taus) / safe,
        y_low,
    )
    g_high = np.where(
        pos,
        (total_y - _lower_partial_sums(cum, cum_y, y_sorted, 1.0 - taus)) / safe,
        y_high,
    )
    if scalar:
        return float(g_low[0]), float(g_high[0])
    return g_low, g_high


def sharp_type2_bounds(
    weights,
    ys,
    be: BoundaryEstimates,
    y_low: float,
    y_high: float,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> tuple[BoundsResult, TrimmingCurve]:
    """Sharp interval for the one-sided precise manipulation model.

    Parameters
    ----------
    weights, ys : kernel weights and outcomes of the right-of-cutoff
        in-bandwidth observations, 1-d and of one length.
    be : boundary estimates supplying mu_plus, mu_minus, f_plus, f_minus.
    grid_size : number of z values scanned over [f_minus, f_plus],
        endpoints included.

    Returns the interval (min over z of the per-z lower ends, max of the
    upper ends) together with the sampled trimming curve. The result always
    refines the crude two-branch interval.
    """
    _check_range(y_low, y_high)
    if grid_size < 2:
        raise InvalidGrid(f"grid_size must be at least 2, got {grid_size}")
    weights = np.asarray(weights, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if weights.ndim != 1 or weights.shape != ys.shape or weights.size == 0:
        raise EmptyWindow("weights and ys must be nonempty 1-d arrays of one length")
    if not np.any(weights > 0):
        raise EmptyWindow("window carries no positive weight")

    status, note = _refutation(be.r)
    f_plus = be.f_plus
    f_minus = min(be.f_minus, f_plus)  # r clamped into [0, 1] for the scan
    z = np.linspace(f_minus, f_plus, grid_size)
    tau = 1.0 - z / f_plus
    tau[-1] = 0.0
    g_low, g_high = weighted_trimmed_means(ys, weights, tau, y_low, y_high)
    theta_low = (f_plus / z) * (be.mu_plus - g_high) - (f_minus / z) * (be.mu_minus - y_high) + (g_high - y_high)
    theta_high = (f_plus / z) * (be.mu_plus - g_low) - (f_minus / z) * (be.mu_minus - y_low) + (g_low - y_low)
    lower, upper = _snap_degenerate(theta_low.min(), theta_high.max(), y_low, y_high)
    result = BoundsResult(
        lower=float(lower),
        upper=float(upper),
        target=TARGET_LABELS[TypeAssumption.TYPE2],
        assumption=TypeAssumption.TYPE2,
        status=status,
        note=note,
    )
    curve = TrimmingCurve(
        z_grid=z,
        tau=tau,
        g_low=np.asarray(g_low),
        g_high=np.asarray(g_high),
        theta_low=theta_low,
        theta_high=theta_high,
    )
    return result, curve


def fuzzy_bounds(
    be: BoundaryEstimates, d_plus: float, d_minus: float, y_low: float, y_high: float
) -> BoundsResult:
    """Interval for the ratio estimand of a fuzzy design.

    ``d_plus``/``d_minus`` are the one-sided treatment-probability limits at
    the cutoff and must lie in [0, 1]. Outcome and treatment jumps are
    bounded through the unknown counterfactual density value; the interval
    is the extreme ratio of those bounds. Requires a strictly positive
    worst-case treatment jump, else the result is Degenerate.
    """
    for name, v in (("d_plus", d_plus), ("d_minus", d_minus)):
        if not (0.0 <= v <= 1.0):
            raise InvalidConfig(f"{name} must lie in [0, 1], got {v}")
    _check_range(y_low, y_high)
    r_y_low = be.f_plus * (be.mu_plus - y_high) - be.f_minus * (be.mu_minus - y_high)
    r_y_high = be.f_plus * (be.mu_plus - y_low) - be.f_minus * (be.mu_minus - y_low)
    r_d_low = be.f_plus * (d_plus - 1.0) - be.f_minus * (d_minus - 1.0)
    r_d_high = be.f_plus * d_plus - be.f_minus * d_minus
    if r_d_low <= 0:
        return BoundsResult(
            lower=float("-inf"),
            upper=float("inf"),
            target=FUZZY_TARGET_LABEL,
            assumption=TypeAssumption.TYPE2,
            status=BoundsStatus.DEGENERATE,
            note="worst-case treatment jump is not positive; no informative bounds",
        )
    lower = min(r_y_low / r_d_low, r_y_low / r_d_high)
    upper = max(r_y_high / r_d_low, r_y_high / r_d_high)
    status, note = _refutation(be.r)
    return BoundsResult(
        lower=float(lower),
        upper=float(upper),
        target=FUZZY_TARGET_LABEL,
        assumption=TypeAssumption.TYPE2,
        status=status,
        note=note,
    )


def covariate_bounds(per_stratum) -> BoundsResult:
    """Intersection of per-stratum intervals under an exclusion restriction.

    Takes (label, BoundsResult) pairs that share target and assumption; the
    result is [max of lowers, min of uppers]. An empty intersection is
    reported as Refuted, signalling a violated exclusion restriction.
    """
    items = list(per_stratum)
    if not items:
        raise EmptyInput("need at least one stratum interval")
    results = [res for _, res in items]
    first = results[0]
    for label, res in items:
        if res.status is not BoundsStatus.INFORMATIVE:
            raise MixedTargets(f"stratum {label!r} is not Informative ({res.status.value})")
        if res.target != first.target or res.assumption is not first.assumption:
            raise MixedTargets(f"stratum {label!r} targets a different estimand")
    lower = max(res.lower for res in results)
    upper = min(res.upper for res in results)
    refuted = lower > upper
    return BoundsResult(
        lower=float(lower),
        upper=float(upper),
        target=first.target,
        assumption=first.assumption,
        status=BoundsStatus.REFUTED if refuted else BoundsStatus.INFORMATIVE,
        note="stratum intervals do not intersect; exclusion restriction suspect" if refuted else None,
    )
