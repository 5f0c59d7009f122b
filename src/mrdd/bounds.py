"""Partial-identification bounds for the cutoff treatment effect.

Every set bounds the cutoff effect through the unknown counterfactual
density at the cutoff, which lies between f(c-) and f(c+), so it depends on
the data only through mu_plus, mu_minus and the density ratio
r = f(c-)/f(c+). Each kind of bound has one entry point, which takes those
three numbers from any estimator or population and its ends from one
interval algebra, ``crude_interval``; that function also takes arrays, so
a bootstrap's replicates go through the same formulas in one call.
``crude_bounds`` evaluates ``crude_interval`` under a ``TypeAssumption``.
``sharp_type2_bounds``, for the one-sided precise manipulation model,
starts from its type-3 interval (no trimming) and additionally trims the
right-boundary outcome distribution, given as weights and outcomes, taking
the exact extremes over the counterfactual density share at the
breakpoints of the trimming functions.
``fuzzy_bounds`` bounds the ratio estimand of a fuzzy design by the
extreme ratios of two type-3 intervals, the outcome's and the treatment's.

The formulas return the interval they define, even where it leaves the
logical range [y_low - y_high, y_high - y_low] of an effect; clipping a
reported interval to that range is the caller's job, through
``clamp_interval``. All operations are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, InvalidConfig, InvalidOutcomeRange

#: Estimated r above 1 + this tolerance refutes the one-sided sorting model.
R_REFUTATION_TOLERANCE = 0.02


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


def _result(lower, upper, r: float, assumption: TypeAssumption, target: str) -> BoundsResult:
    """The ``BoundsResult`` of the ends at density ratio r: Refuted, with a
    note, when r exceeds one beyond tolerance; Informative otherwise."""
    status, note = BoundsStatus.INFORMATIVE, None
    if r > 1.0 + R_REFUTATION_TOLERANCE:
        status, note = BoundsStatus.REFUTED, (
            f"estimated density ratio r={r:.4f} exceeds 1 beyond tolerance "
            f"{R_REFUTATION_TOLERANCE}; the one-sided sorting restriction "
            "f(c-) <= f(c+) looks violated"
        )
    return BoundsResult(float(lower), float(upper), target, assumption, status, note)


def clamp_interval(lower: float, upper: float, y_low: float, y_high: float):
    """Clip an effect interval to the logical range [y_low - y_high, y_high - y_low].

    Returns ``(lower, upper, clamped)``, where ``clamped`` says whether
    either end moved.
    """
    lo_cap, hi_cap = y_low - y_high, y_high - y_low
    new_lower = min(max(lower, lo_cap), hi_cap)
    new_upper = max(min(upper, hi_cap), lo_cap)
    return new_lower, new_upper, (new_lower != lower or new_upper != upper)


def snap_tolerance(y_low: float, y_high: float) -> float:
    """How far crossed ends may lie apart and still count as a rounding crossing."""
    return 1e-9 * max(1.0, abs(y_low), abs(y_high))


def _snap_degenerate(lower, upper, y_low, y_high):
    """Collapse floating-point-level crossings (exact at r = 1 algebraically), elementwise."""
    crossed = (upper < lower) & (lower <= upper + snap_tolerance(y_low, y_high))
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
    if y_low is None or y_high is None:
        raise InvalidOutcomeRange("bounds need a declared outcome range (y_low, y_high)")
    if not (np.isfinite(y_low) and np.isfinite(y_high)):
        raise InvalidOutcomeRange("outcome range must be finite")
    if y_low > y_high:
        raise InvalidOutcomeRange(f"y_low {y_low} > y_high {y_high}")
    if np.any(r <= 0):
        raise ValueError(f"density ratio must be positive, got {np.min(r)}")
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
    mu_plus: float, mu_minus: float, r: float, y_low: float, y_high: float, assumption: TypeAssumption
) -> BoundsResult:
    """``crude_interval`` at one (mu_plus, mu_minus, r), with target and status."""
    lower, upper = crude_interval(mu_plus, mu_minus, r, y_low, y_high, assumption)
    return _result(lower, upper, r, assumption, TARGET_LABELS[assumption])


def _sorted_window(ys, weights):
    """The window's positive-weight rows as (outcomes ascending, weights summing to one)."""
    ys = np.asarray(ys, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0
    ys, weights = ys[keep], weights[keep]
    if ys.size == 0:
        raise EmptyWindow("no positive-weight observations in the trimming window")
    order = np.argsort(ys, kind="stable")
    return ys[order], weights[order] / weights.sum()


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


def _min_trimmed_ratio(y_sorted, w_sorted, a: float, r: float) -> float:
    """The minimum over q in [r, 1) of (a + L(q)) / q, for 0 < r < 1.

    L(q) is the outcome sum of the lowest mass q of the sorted distribution.
    L is linear between the cumulative weights, so on each piece the ratio
    has the form c + b/q and is monotone; its minimum lies at q = r or at a
    cumulative weight inside (r, 1).
    """
    cum = np.cumsum(w_sorted)
    cum_y = np.cumsum(w_sorted * y_sorted)
    inner = (r < cum[:-1]) & (cum[:-1] < 1.0)
    q = np.append(cum[:-1][inner], r)
    sums = np.append(cum_y[:-1][inner], _lower_partial_sums(cum, cum_y, y_sorted, r))
    return float(np.min((a + sums) / q))


def sharp_type2_bounds(weights, ys, mu_plus, mu_minus, r, y_low: float, y_high: float) -> BoundsResult:
    """Sharp interval for the one-sided precise manipulation model.

    ``weights`` and ``ys`` are the kernel weights and outcomes of the
    right-of-cutoff in-bandwidth observations, 1-d and of one length;
    mu_plus, mu_minus and r are the one-sided means and the density ratio.
    The interval is the infimum and the supremum, over the counterfactual
    density share q = z/f(c+) in [r, 1] (r clamped to at most 1), of the
    per-q ends

        theta_low(q)  = (mu+ - T + L(q) - r (mu- - yU)) / q - yU
        theta_high(q) = (mu+ - T + U(q) - r (mu- - yL)) / q - yL

    where T is the window's weighted mean and L(q), U(q) are the outcome
    sums of its lowest and highest mass q (Lee 2009 trimming). Both extremes
    are exact: they are taken at q = r, q = 1 and the window's cumulative
    weights. At q = 1 nothing is trimmed and the ends are the type-3
    ``crude_interval``'s. The result always refines the crude two-branch
    interval.
    """
    weights = np.asarray(weights, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if weights.ndim != 1 or weights.shape != ys.shape or weights.size == 0:
        raise EmptyWindow("weights and ys must be nonempty 1-d arrays of one length")
    if not np.any(weights > 0):
        raise EmptyWindow("window carries no positive weight")

    lower, upper = map(float, crude_interval(mu_plus, mu_minus, r, y_low, y_high, TypeAssumption.TYPE3))
    q_lo = min(r, 1.0)
    if q_lo < 1.0:
        y_sorted, w_sorted = _sorted_window(ys, weights)
        # numpy's pairwise sum, not BLAS: its bits do not depend on the BLAS thread count
        shift = mu_plus - float(np.sum(w_sorted * y_sorted))
        # U(q) of y is -L(q) of -y, whose ascending order is y's reversed
        lower = min(lower, _min_trimmed_ratio(y_sorted, w_sorted, shift - q_lo * (mu_minus - y_high), q_lo) - y_high)
        upper = max(
            upper,
            -_min_trimmed_ratio(-y_sorted[::-1], w_sorted[::-1], q_lo * (mu_minus - y_low) - shift, q_lo) - y_low,
        )
    lower, upper = _snap_degenerate(lower, upper, y_low, y_high)
    return _result(lower, upper, r, TypeAssumption.TYPE2, TARGET_LABELS[TypeAssumption.TYPE2])


def fuzzy_bounds(
    mu_plus: float, mu_minus: float, r: float, d_plus: float, d_minus: float, y_low: float, y_high: float
) -> BoundsResult:
    """Interval for the ratio estimand of a fuzzy design.

    ``d_plus``/``d_minus`` are the one-sided treatment-probability limits at
    the cutoff and must lie in [0, 1]. The outcome jump is bounded by the
    type-3 ``crude_interval`` of (mu_plus, mu_minus) on [y_low, y_high],
    the treatment jump by the same interval of (d_plus, d_minus) on [0, 1],
    both at the density ratio r (above one evaluated at one); the interval
    is the extreme ratio of those two. Requires a strictly positive
    worst-case treatment jump, else the result is Degenerate.
    """
    for name, v in (("d_plus", d_plus), ("d_minus", d_minus)):
        if not (0.0 <= v <= 1.0):
            raise InvalidConfig(f"{name} must lie in [0, 1], got {v}")
    y_lo, y_hi = map(float, crude_interval(mu_plus, mu_minus, r, y_low, y_high, TypeAssumption.TYPE3))
    d_lo, d_hi = map(float, crude_interval(d_plus, d_minus, r, 0.0, 1.0, TypeAssumption.TYPE3))
    if d_lo <= 0:
        return BoundsResult(
            lower=float("-inf"),
            upper=float("inf"),
            target=FUZZY_TARGET_LABEL,
            assumption=TypeAssumption.TYPE2,
            status=BoundsStatus.DEGENERATE,
            note="worst-case treatment jump is not positive; no informative bounds",
        )
    lower = min(y_lo / d_lo, y_lo / d_hi)
    upper = max(y_hi / d_lo, y_hi / d_hi)
    return _result(lower, upper, r, TypeAssumption.TYPE2, FUZZY_TARGET_LABEL)
