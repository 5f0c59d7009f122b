"""Kernel-weighted local polynomial regression and boundary density estimation.

The estimators here:

* ``local_poly_fit`` fits a weighted polynomial in the centred running
  variable and reads the level off the intercept, one-sided or interior.
* ``boundary_density`` estimates the density at a point as the slope of a
  local polynomial fit to the empirical CDF, one degree above the requested
  order. A non-positive slope is floored at ``DENSITY_FLOOR`` and flagged;
  reporting or counting the flag is the caller's job.
* ``density_curve`` gives the same densities at many points over one
  sample: it sorts x once and fits each point on its own window's rows.
* ``rot_bandwidth`` supplies the rule-of-thumb default bandwidth from
  ``sample_sd``, a standard deviation that cannot overflow; the bootstrap
  SEs use it too.

Both fits take plain arrays: the running variable, and for the mean fit the
outcome.

``local_weights``, ``density_window``, ``weighted_powers`` and
``fit_from_moments`` are the array-level pieces behind them: which rows a fit
uses, with what weight, and the coefficients from weighted moment sums. The
bootstrap engine builds its batched fits from the same pieces.

Everything is a pure function of its arguments and safe to call from
multiple threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateSupport,
    InsufficientData,
    InvalidConfig,
    SingularDesign,
)

#: Highest polynomial order of any fit; Gelman & Imbens (2019) argue against
#: higher orders in regression discontinuity designs.
MAX_ORDER = 2
#: Floor applied to non-positive density estimates; downstream ratios need f > 0.
DENSITY_FLOOR = 1e-6
#: Lower bound for rule-of-thumb bandwidths (guards zero-variance sides).
MIN_BANDWIDTH = 1e-8
#: In-window duplicate share beyond which the running variable is treated as discrete.
DUPLICATE_FRACTION_LIMIT = 0.2


class KernelKind(enum.Enum):
    TRIANGULAR = "triangular"
    UNIFORM = "uniform"
    EPANECHNIKOV = "epanechnikov"


class Side(enum.Enum):
    """Which observations enter a fit, relative to the evaluation point.

    RIGHT includes the evaluation point itself (treatment-side convention,
    x >= point); LEFT is strict (x < point); INTERIOR uses both sides.
    """

    LEFT = "left"
    RIGHT = "right"
    INTERIOR = "interior"


def check_order(order: int) -> None:
    """Raise InvalidConfig unless ``order`` lies in [0, MAX_ORDER]."""
    if not (0 <= order <= MAX_ORDER):
        raise InvalidConfig(f"polynomial order must be in [0, {MAX_ORDER}], got {order}")


@dataclass(frozen=True)
class FitSpec:
    """Degree, bandwidth, kernel and side of one local fit."""

    order: int
    bandwidth: float
    kernel: KernelKind = KernelKind.TRIANGULAR
    side: Side = Side.INTERIOR

    def __post_init__(self):
        check_order(self.order)
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise InvalidConfig(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class LocalFitResult:
    """Coefficients of the local polynomial in (x - eval_point) powers.

    ``coefficients[0]`` is the level estimate at the evaluation point,
    ``coefficients[1]`` the slope, and so on. ``effective_n`` counts
    observations that carried nonzero kernel weight.
    """

    coefficients: np.ndarray
    effective_n: int


def kernel_weight(u, kernel: KernelKind = KernelKind.TRIANGULAR):
    """Evaluate the kernel at ``u``; zero outside [-1, 1], symmetric.

    Accepts scalars or arrays; returns the matching shape.
    """
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    if kernel is KernelKind.TRIANGULAR:
        w = np.maximum(0.0, 1.0 - au)
    elif kernel is KernelKind.UNIFORM:
        w = np.where(au <= 1.0, 0.5, 0.0)
    elif kernel is KernelKind.EPANECHNIKOV:
        w = np.where(au <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    else:  # pragma: no cover - enum is closed
        raise InvalidConfig(f"unknown kernel {kernel!r}")
    if w.ndim == 0:
        return float(w)
    return w


def _side_mask(x: np.ndarray, point: float, side: Side) -> np.ndarray:
    if side is Side.LEFT:
        return x < point
    if side is Side.RIGHT:
        return x >= point
    return np.ones(x.shape, dtype=bool)


def _weighted_polyfit(u, w, v, degree, side_label):
    """Weighted LS of v on powers of u (already scaled to [-1, 1])."""
    design = np.vander(u, degree + 1, increasing=True)
    sw = np.sqrt(w)
    beta, _, rank, _ = np.linalg.lstsq(design * sw[:, None], v * sw, rcond=None)
    if rank < degree + 1:
        raise SingularDesign(
            f"normal equations rank {rank} < {degree + 1}; "
            "not enough distinct running-variable values in window",
            side=side_label,
        )
    return beta


def local_poly_fit(x, y, eval_point: float, spec: FitSpec) -> LocalFitResult:
    """Kernel-weighted polynomial regression of y on (x - eval_point).

    Parameters
    ----------
    x, y : 1-d arrays of equal length (running variable and outcome)
    eval_point : where the level is evaluated (approached from ``spec.side``)
    spec : FitSpec

    Returns
    -------
    LocalFitResult with ``coefficients[0]`` the one-sided level estimate.

    Raises
    ------
    InvalidConfig : x and y are not 1-d arrays of equal length
    InsufficientData : fewer than order+1 points carry nonzero weight
    SingularDesign : the weighted design is rank deficient
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidConfig("x and y must be 1-d arrays of equal length")
    u, w, keep = local_weights(x, eval_point, spec)
    m = int(np.count_nonzero(keep))
    if m < spec.order + 1:
        raise InsufficientData(
            f"{m} in-window points on side {spec.side.value!r}, "
            f"need at least {spec.order + 1} for order {spec.order}",
            side=spec.side.value,
        )
    u, w, y = u[keep], np.asarray(w)[keep], y[keep]
    beta = _weighted_polyfit(u, w, y, spec.order, spec.side.value)
    # beta is in u-powers; convert back to (x - eval_point) powers one
    # division by h at a time, so h**k never overflows on its own. A slope
    # beyond the float range becomes inf, as in Python floats.
    coef = beta.copy()
    with np.errstate(over="ignore"):
        for k in range(1, spec.order + 1):
            coef[k:] /= spec.bandwidth
    return LocalFitResult(coefficients=coef, effective_n=m)


def local_weights(x: np.ndarray, eval_point: float, spec: FitSpec):
    """Scaled distances, kernel weights and the rows a local fit uses.

    Returns ``(u, w, keep)`` with ``u = (x - eval_point) / h`` and ``keep``
    marking the rows on ``spec.side`` with positive kernel weight.
    """
    u = (x - eval_point) / spec.bandwidth
    w = kernel_weight(u, spec.kernel)
    keep = (np.asarray(w) > 0) & _side_mask(x, eval_point, spec.side)
    return u, w, keep


def weighted_powers(u: np.ndarray, w: np.ndarray, degree: int, out: np.ndarray) -> None:
    """Write ``w * u**k`` for k = 0..degree into the columns of ``out``."""
    col = np.array(w, dtype=float)
    for k in range(degree + 1):
        out[:, k] = col
        if k < degree:
            col *= u


def fit_from_moments(weight_sums: np.ndarray, value_sums: np.ndarray) -> np.ndarray:
    """Weighted least-squares coefficients from moment sums, batched.

    ``weight_sums[..., k]`` holds sum(w * u**k) for k = 0..2d and
    ``value_sums[..., j]`` holds sum(w * u**j * v) for j = 0..d. Returns the
    solution of the normal equations, coefficients in u powers, shape
    ``(..., d + 1)``. The caller rules out singular systems beforehand.
    """
    d = value_sums.shape[-1] - 1
    gram = weight_sums[..., np.add.outer(np.arange(d + 1), np.arange(d + 1))]
    return np.linalg.solve(gram, value_sums[..., None])[..., 0]


def _density_edges(eval_point: float, spec: FitSpec) -> tuple[float, float]:
    """Edges of the CDF fit's window; the upper one is exclusive on the LEFT side only."""
    h = spec.bandwidth
    lo = eval_point if spec.side is Side.RIGHT else eval_point - h
    hi = eval_point if spec.side is Side.LEFT else eval_point + h
    return lo, hi


def density_window(xs: np.ndarray, eval_point: float, spec: FitSpec) -> np.ndarray:
    """Rows entering the CDF fit: [p - h, p) left, [p, p + h] right, both interior."""
    lo, hi = _density_edges(eval_point, spec)
    below_hi = xs < hi if spec.side is Side.LEFT else xs <= hi
    return (xs >= lo) & below_hi


def _density_fit(win: np.ndarray, ranks: np.ndarray, n: int, eval_point: float, spec: FitSpec):
    """Density from the window's sorted x values and their full-sample CDF ranks.

    ``ranks[i]`` counts the sample values <= ``win[i]`` and ``n`` is the
    sample size. Returns ``(density, clipped)`` as ``boundary_density``.
    """
    m = win.size
    if m > 0:
        n_distinct = 1 + int(np.count_nonzero(np.diff(win) > 0))
        if (m - n_distinct) > DUPLICATE_FRACTION_LIMIT * m:
            raise DegenerateSupport(
                f"{m - n_distinct} of {m} in-window values are exact duplicates; "
                "the running variable looks discrete",
                side=spec.side.value,
            )
    else:
        n_distinct = 0
    if n_distinct < spec.order + 2:
        raise InsufficientData(
            f"{n_distinct} distinct in-window points on side {spec.side.value!r}, "
            f"need at least {spec.order + 2} for a degree-{spec.order + 1} CDF fit",
            side=spec.side.value,
        )
    h = spec.bandwidth
    u = (win - eval_point) / h
    w = kernel_weight(u, spec.kernel)
    beta = _weighted_polyfit(u, w, ranks / n, spec.order + 1, spec.side.value)
    dens = float(beta[1] / h)
    if dens < DENSITY_FLOOR:
        return DENSITY_FLOOR, True
    return dens, False


def boundary_density(xs, eval_point: float, spec: FitSpec) -> tuple[float, bool]:
    """One-sided (or interior) density estimate at ``eval_point``.

    Fits the full-sample empirical CDF locally at ``eval_point`` with a
    polynomial of degree ``spec.order + 1`` and takes its slope. Returns
    ``(density, clipped)``: a non-positive slope is replaced by
    ``DENSITY_FLOOR``, because ratios built downstream need f > 0, and
    ``clipped`` says so. Raises DegenerateSupport when too many in-window
    values are exact duplicates.

    One call costs O(n): it masks the sample and sorts only the window. For
    many points over one sample, ``density_curve`` sorts once instead.
    """
    xs = np.asarray(xs, dtype=float)
    lo, _ = _density_edges(eval_point, spec)
    win = np.sort(xs[density_window(xs, eval_point, spec)])
    # rows below the window plus each value's rank inside it
    ranks = int(np.count_nonzero(xs < lo)) + np.searchsorted(win, win, side="right")
    return _density_fit(win, ranks, xs.size, eval_point, spec)


def density_curve(xs, eval_points, specs) -> tuple[np.ndarray, np.ndarray]:
    """``boundary_density`` at every point of ``eval_points`` over one sample.

    ``specs[i]`` is the fit at ``eval_points[i]``. Returns ``(densities,
    clipped)`` as float and bool arrays, equal bit for bit to calling
    ``boundary_density`` point by point; where that call would raise a
    DataError the density is NaN and the flag False. x is sorted once, and
    each point fits only the slice of sorted rows inside its own window, so
    the cost per point follows the window rows, not the sample size.
    """
    points = np.asarray(eval_points, dtype=float)
    if points.ndim != 1 or points.size != len(specs):
        raise InvalidConfig("eval_points must be 1-d with one FitSpec per point")
    xs_sorted = np.sort(np.asarray(xs, dtype=float))
    # sample values <= each sorted value: the same integers as the per-point ranks
    ranks = np.searchsorted(xs_sorted, xs_sorted, side="right")
    densities = np.full(points.size, np.nan)
    clipped = np.zeros(points.size, dtype=bool)
    for i, (point, spec) in enumerate(zip(points, specs)):
        lo, hi = _density_edges(point, spec)
        start = np.searchsorted(xs_sorted, lo, side="left")
        stop = np.searchsorted(xs_sorted, hi, side="left" if spec.side is Side.LEFT else "right")
        try:
            densities[i], clipped[i] = _density_fit(
                xs_sorted[start:stop], ranks[start:stop], xs_sorted.size, point, spec
            )
        except DataError:
            pass
    return densities, clipped


def sample_sd(values) -> float:
    """Sample standard deviation (ddof=1) of ``values``, with the bits of
    ``np.std(values, ddof=1)`` but no overflow and no warning.

    It is the sd of values / 2**floor(log2(max|v|)), scaled back. A
    power-of-two scale is exact, so the bits are unchanged, but the squares
    cannot overflow on values near the float limit. A non-finite value
    gives nan or inf, silently.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.ldexp(1.0, np.frexp(np.abs(values).max())[1] - 1)
        return float(np.std(values / scale, ddof=1) * scale)


def rot_bandwidth(xs, side: Side, cutoff: float) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd * n^(-1/5) on one side of the cutoff.

    Floored at MIN_BANDWIDTH so degenerate sides still return a positive
    width. Scale-equivariant: scaling xs and the cutoff by k scales the
    result by k (while the floor does not bind).
    """
    xs = np.asarray(xs, dtype=float)
    sub = xs[_side_mask(xs, cutoff, side)]
    if sub.size < 2:
        raise InsufficientData(
            f"need at least 2 observations on side {side.value!r}, got {sub.size}",
            side=side.value,
        )
    bw = 1.06 * sample_sd(sub) * sub.size ** (-0.2)
    return max(bw, MIN_BANDWIDTH)
