"""Kernel-weighted local polynomial regression and boundary density estimation.

The estimators here:

* ``local_poly_fit`` fits a weighted polynomial in the centred running
  variable, one-sided or interior, from the normal equations of its
  window's moment sums, as the bootstrap engine does; the intercept is the
  level.
* ``density_curve`` estimates the density at each of many points as the
  slope of a local polynomial fit to the empirical CDF, one degree above
  the requested order; a non-positive slope is floored at ``DENSITY_FLOOR``
  and flagged. ``boundary_density`` is its one-point case, which raises a
  poor window's labelled DataError, and costs one sort of x.
* ``rot_bandwidth`` supplies the rule-of-thumb default bandwidth from
  ``sample_sd``, a standard deviation that cannot overflow.

The fits take plain arrays.

The densities come from one kernel, ``_fit_windows``. The sorted rows
are cut into blocks of _BLOCK rows at fixed multiples of _BLOCK in the
sorted sample, and each block keeps sum(t**k) and sum(t**k * r), with
t = (x - a) / h and r = e_x - e_a for its first value a and the tie-group
ends e, which are the CDF ranks up to a constant. The points that share a
bandwidth, order and kernel sum only the blocks from their lowest window
start to their highest window end; a block's sums do not depend on the
blocks summed beside it, so each point gets the bits it gets alone. A
point fits the ranks less its window's first one on v = (x - point) / h -
centre, centred on the window's rows so the normal equations stay well
conditioned. On each side of the point the blocks inside its window shift
to v binomially and the at most 2 (_BLOCK - 1) rows around them are summed
directly, weighted by that side's kernel polynomial; one batched
``fit_from_moments`` solve gives the slopes. A fit costs
O(_BLOCK + m / _BLOCK) for m window rows, and sums use elementwise numpy
and ``bincount`` only, never BLAS.

``local_weights``, ``sorted_rows``, ``cdf_windows``, ``mean_counts``,
``weighted_powers``, ``fit_from_moments`` and ``support_error`` are the
array-level pieces behind them, which the bootstrap engine shares: which
rows a fit uses and with what weight, the sample's tie groups, the CDF
fit's window and the counts of a window's support, the coefficients from
weighted moment sums, and the error of a window too poor for its fit.
Everything is a pure function of its arguments and safe to call from
multiple threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb

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
#: The determinant of a Gram scaled to unit diagonal at or below which a
#: fit's normal equations count as singular. Scaled, the entries lie in
#: [-1, 1] and the determinant in [0, 1]. By Cauchy-Schwarz an entry's
#: terms sum in absolute value to at most its scale, so rounding moves a
#: scaled entry by at most about g eps; g = 256 allows for sums of many
#: rows. Where the exact Gram of p coefficients is singular, the computed
#: one has an eigenvalue below p g eps (Weyl) and the others sum to at most
#: p, so its determinant is below e p g eps. A CDF fit has the most
#: coefficients, MAX_ORDER + 2, which gives 6.2e-13. A system above it has
#: a smallest eigenvalue above SINGULAR_DET / e: a scaled condition number
#: below 2e13. Exactly singular Grams, summed as the bootstrap sums them,
#: reach about 1.2e-14; a plotdata fit that keeps seven digits, 4.6e-11.
SINGULAR_DET = np.e * (MAX_ORDER + 2) * 256 * float(np.finfo(float).eps)
#: Lower bound for rule-of-thumb bandwidths, as a share of the side's largest
#: |x - c| (guards zero-variance sides); absolute where every x is at c.
MIN_BANDWIDTH = 1e-8
#: In-window duplicate share beyond which the running variable is treated as discrete.
DUPLICATE_FRACTION_LIMIT = 0.2
#: Sorted rows per block of the density fits' moment sums.
_BLOCK = 32
#: Bytes of the temporaries of one chunk of block sums; a batch of density
#: fits gets twice this.
_BATCH_BYTES = 1 << 21


class KernelKind(enum.Enum):
    TRIANGULAR = "triangular"
    UNIFORM = "uniform"
    EPANECHNIKOV = "epanechnikov"


#: The kernel's coefficients of u**0, u**1, ... below the point and at or
#: above it; each polynomial is ``kernel_weight`` wherever that is positive.
_KERNEL_POLY = {
    KernelKind.TRIANGULAR: ((1.0, 1.0), (1.0, -1.0)),
    KernelKind.UNIFORM: ((0.5,), (0.5,)),
    KernelKind.EPANECHNIKOV: ((0.75, 0.0, -0.75),) * 2,
}


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


def local_poly_fit(x, y, eval_point: float, spec: FitSpec) -> LocalFitResult:
    """Kernel-weighted polynomial regression of y on (x - eval_point).

    Parameters
    ----------
    x, y : 1-d arrays of equal length (running variable and outcome)
    eval_point : where the level is evaluated (approached from ``spec.side``)
    spec : FitSpec

    Returns
    -------
    LocalFitResult with ``coefficients[0]`` the one-sided level estimate,
    from the normal equations of the window's moment sums.

    Raises
    ------
    InvalidConfig : x and y are not 1-d arrays of equal length
    InsufficientData, SingularDesign : as ``support_error`` finds them
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidConfig("x and y must be 1-d arrays of equal length")
    u, w, keep = local_weights(x, eval_point, spec)
    u, w, y = u[keep], w[keep], y[keep]
    d = spec.order
    moments = np.empty((3 * d + 2, u.size))
    weighted_powers(u, w, 2 * d, moments[: 2 * d + 1])
    weighted_powers(u, w * y, d, moments[2 * d + 1 :])
    # numpy's pairwise sums along each row, never BLAS
    sums = moments.sum(axis=1)
    beta = fit_from_moments(sums[: 2 * d + 1], sums[2 * d + 1 :])
    err = support_error(spec, mean_counts(np.sort(u)), cdf=False, solved=not np.isnan(beta[0]))
    if err is not None:
        raise err
    # beta is in u-powers; convert back to (x - eval_point) powers one
    # division by h at a time, so h**k never overflows on its own. A slope
    # beyond the float range becomes inf, as in Python floats.
    with np.errstate(over="ignore"):
        for k in range(1, d + 1):
            beta[k:] /= spec.bandwidth
    return LocalFitResult(coefficients=beta, effective_n=u.size)


def support_error(spec: FitSpec, counts, cdf: bool, solved: bool = True) -> DataError | None:
    """The DataError of the mean fit on ``spec``, or with ``cdf`` of the CDF
    fit behind its density, on a window of ``counts``: rows, distinct values
    and distinct positive-weight values; None where it can be fit. ``solved``
    False marks normal equations that ``fit_from_moments`` finds singular,
    a scaled Gram determinant at or below SINGULAR_DET.
    """
    rows, distinct, positive = counts
    side, degree = spec.side.value, spec.order + cdf
    if cdf and rows - distinct > DUPLICATE_FRACTION_LIMIT * rows:
        return DegenerateSupport(f"{rows - distinct} of {rows} in-window values are exact duplicates; "
                                 "the running variable looks discrete", side=side)
    if cdf and distinct <= degree:
        return InsufficientData(f"{distinct} distinct in-window points on side {side!r}, need at least "
                                f"{degree + 1} for a degree-{degree} CDF fit", side=side)
    if not cdf and rows <= degree:
        return InsufficientData(f"{rows} in-window points on side {side!r}, "
                                f"need at least {degree + 1} for order {degree}", side=side)
    if not cdf and positive <= degree:
        return SingularDesign(f"normal equations rank {positive} < {degree + 1}; "
                              "not enough distinct running-variable values in window", side=side)
    if positive <= degree or not solved:
        return SingularDesign(f"normal equations of the degree-{degree} {'CDF' if cdf else 'mean'} fit are "
                              f"singular on {positive} distinct positive-weight values in window", side=side)
    return None


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
    """Write ``w * u**k`` for k = 0..degree into the rows of ``out``."""
    row = np.array(w, dtype=float)
    for k in range(degree + 1):
        out[k] = row
        if k < degree:
            row *= u


def fit_from_moments(weight_sums: np.ndarray, value_sums: np.ndarray) -> np.ndarray:
    """Weighted least-squares coefficients from moment sums, batched.

    ``weight_sums[..., k]`` holds sum(w * u**k) for k = 0..2d and
    ``value_sums[..., j]`` holds sum(w * u**j * v) for j = 0..d. Returns the
    solution of the normal equations, coefficients in u powers, shape
    ``(..., d + 1)``; the batch shapes broadcast. A system whose Gram,
    scaled to unit diagonal, has a determinant at or below SINGULAR_DET,
    or is zero or not finite, gets NaN coefficients.
    """
    d = value_sums.shape[-1] - 1
    gram = weight_sums[..., np.add.outer(np.arange(d + 1), np.arange(d + 1))]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the diagonal is sum(w * u**2k)
        root = np.sqrt(weight_sums[..., : 2 * d + 1 : 2])
        singular = ~(np.linalg.det(gram / root[..., :, None] / root[..., None, :]) > SINGULAR_DET)
    # the identity stands in for the singular systems, so that the others
    # are solved alone
    gram[singular] = np.eye(d + 1)
    return np.where(singular[..., None], np.nan, np.linalg.solve(gram, value_sums[..., None])[..., 0])


def floor_density(density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``density`` with each value below DENSITY_FLOOR raised to it, and a
    mask of those values; NaN stays NaN and unmasked."""
    clipped = density < DENSITY_FLOOR
    return np.where(clipped, DENSITY_FLOOR, density), clipped


def sorted_rows(x_sorted: np.ndarray):
    """``x_sorted``, each row's tie-group end (``np.searchsorted(x_sorted,
    x_sorted, side="right")``, found in O(n)), and the tie groups that start
    before each row (n + 1 counts)."""
    n = x_sorted.size
    starts = np.zeros(n + 1, dtype=np.intp)
    new_group = x_sorted[1:] != x_sorted[:-1]
    np.cumsum(new_group, out=starts[2:])
    starts[1:] += 1
    # row i's tie group ends at i + 1, or where row i + 1's ends if that row
    # ties it: a running minimum from the last row, in O(n) and in place
    tied = np.logical_not(new_group, out=new_group)
    ends = np.arange(1, n + 1, dtype=np.intp)
    ends[:-1][tied] = n
    np.minimum.accumulate(ends[::-1], out=ends[::-1])
    return x_sorted, ends, starts


def _power_sums(owner, t, r, n_owners: int, n_pow: int, n_val: int, out: np.ndarray) -> None:
    """Add each owner's sum(t**k) to ``out[k]`` (k < n_pow) and sum(t**k * r)
    to ``out[n_pow + k]`` (k < n_val); ``bincount`` sums in row order."""
    tk = np.ones_like(t)
    for k in range(n_pow):
        out[k] += np.bincount(owner, tk, n_owners)
        if k < n_val:
            out[n_pow + k] += np.bincount(owner, tk * r, n_owners)
        tk *= t


def _ranges(starts: np.ndarray, lengths: np.ndarray):
    """Owner and row of every row in the ranges [starts[i], starts[i] + lengths[i])."""
    owner = np.repeat(np.arange(starts.size), lengths)
    return owner, np.arange(owner.size) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _block_sums(rows, h: float, order: int, kernel: KernelKind, first: int, stop: int):
    """The full blocks [first, stop): each one's first value and tie-group
    end, the ``_power_sums`` of its t = (x - first value) / h and r = end -
    first end, and how many of those are sums of powers, enough for the CDF
    fits of ``order``; then ``first``. A block's sums do not depend on the
    blocks beside it, so a range gives the bits of the whole sample's call.
    """
    x, ends, _ = rows
    # the kernel polynomial's terms times v**k (k <= 2 (order + 1)), and times r (k <= order + 1)
    terms = len(_KERNEL_POLY[kernel][0])
    n_pow, n_val = 2 * order + 2 + terms, order + 1 + terms
    nb = stop - first
    xb, eb = (a[first * _BLOCK : stop * _BLOCK].reshape(nb, _BLOCK) for a in (x, ends))
    sums = np.zeros((n_pow + n_val, nb))
    # chunks of 8k rows: each temporary is 64 KB, small enough for the
    # allocator to reuse, which keeps plotdata's peak RSS where it was
    step = max(1, _BATCH_BYTES // (256 * _BLOCK))
    # a block wider than 2h enters no window, and its powers may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, nb, step):
            xa, ea = xb[a : a + step], eb[a : a + step]
            t, r = ((xa - xa[:, :1]) / h).ravel(), (ea - ea[:, :1]).ravel().astype(float)
            owner = np.repeat(np.arange(len(xa)), _BLOCK)
            _power_sums(owner, t, r, len(xa), n_pow, n_val, sums[:, a : a + step])
    return xb[:, 0], eb[:, 0], sums, n_pow, first


def _segment_sums(rows, blocks, lo, hi, p, c, e, h: float) -> np.ndarray:
    """``_power_sums`` of v = (x - p) / h - c and r = end - e over the rows
    [lo, hi) of each segment: its full blocks shifted binomially, the at
    most 2 (_BLOCK - 1) rows around them directly. ``blocks`` are
    ``_block_sums`` over a range that holds every segment's full blocks,
    indexed from its first block."""
    x, ends, _ = rows
    anchors, anchor_ends, sums, n_pow, first = blocks
    n_val = sums.shape[0] - n_pow
    j_lo = -(-lo // _BLOCK)
    n_blocks = np.maximum(hi // _BLOCK - j_lo, 0)
    head_end = np.where(n_blocks > 0, j_lo * _BLOCK, hi)
    tail = head_end + n_blocks * _BLOCK
    seg, j = _ranges(j_lo - first, n_blocks)
    delta = (anchors[j] - p[seg]) / h - c[seg]
    sums = sums[:, j]
    sums[n_pow:] += (anchor_ends[j] - e[seg]) * sums[:n_val]
    # powers[k] = delta**k for k >= 1
    powers = [None, delta]
    for _ in range(2, n_pow):
        powers.append(powers[-1] * delta)
    out = np.empty((n_pow + n_val, lo.size))
    for base, count in ((0, n_pow), (n_pow, n_val)):
        out[base] = np.bincount(seg, sums[base], lo.size)
        for k in range(1, count):
            # sum_q comb(k, q) delta**(k - q) sums[q], added in q order; the
            # terms with comb 1 skip their unit factors
            shifted = powers[k] * sums[base]
            for q in range(1, k):
                shifted += comb(k, q) * powers[k - q] * sums[base + q]
            shifted += sums[base + k]
            out[base + k] = np.bincount(seg, shifted, lo.size)
    # the head and the tail of each segment
    starts = np.stack([lo, tail], axis=1).ravel()
    seg, row = _ranges(starts, np.stack([head_end, hi], axis=1).ravel() - starts)
    seg //= 2
    r = (ends[row] - e[seg]).astype(float)
    _power_sums(seg, (x[row] - p[seg]) / h - c[seg], r, lo.size, n_pow, n_val, out)
    return out


def cdf_windows(rows, points, h: float, kernel: KernelKind, left, right):
    """The CDF fit's window at each of ``points`` on ``sorted_rows``, with
    bandwidth ``h``: [p - h, p) where ``left``, [p, p + h] where ``right``,
    [p - h, p + h] elsewhere. Returns ``(start, stop, lo, hi, counts)``: the
    window's rows [start, stop), those [lo, hi) that ``kernel`` gives weight,
    and as the columns of a (3, points) array the counts ``support_error``
    reads: rows, distinct values and distinct positive-weight values."""
    x, ends, starts = rows
    start = np.searchsorted(x, np.where(right, points, points - h), side="left")
    top = np.where(left, points, points + h)
    stop = np.where(left, np.searchsorted(x, top, side="left"), np.searchsorted(x, top, side="right"))
    # the positive-weight rows are contiguous: drop each tie group at either
    # end of the window that kernel_weight gives no weight
    lo, hi = start.copy(), stop.copy()
    for low in (True, False):
        live = np.arange(points.size)
        while live.size:
            live = live[lo[live] < hi[live]]
            live = live[kernel_weight((x[lo[live] if low else hi[live] - 1] - points[live]) / h, kernel) == 0]
            if low:
                lo[live] = ends[lo[live]]
            else:
                hi[live] = np.searchsorted(x, x[hi[live] - 1], side="left")

    def n_distinct(a, b):
        return np.where(b > a, starts[b] - starts[np.minimum(a + 1, b)] + 1, 0)

    return start, stop, lo, hi, np.stack([stop - start, n_distinct(start, stop), n_distinct(lo, hi)])


def mean_counts(u_sorted: np.ndarray) -> tuple[int, int, int]:
    """The counts ``support_error`` reads of a mean fit whose rows have the
    sorted scaled distances ``u_sorted``: rows, then distinct u twice."""
    distinct = int(np.count_nonzero(u_sorted[1:] != u_sorted[:-1])) + 1 if u_sorted.size else 0
    return u_sorted.size, distinct, distinct


def _fit_windows(rows, blocks, n: int, points, window, order: int, h: float, kernel: KernelKind):
    """The CDF-fit density at each of ``points`` on its ``cdf_windows``
    ``window``, NaN where ``support_error`` gives the fit an error, and the
    flags of ``floor_density``. ``blocks`` are the rows' ``_block_sums`` for
    this bandwidth, order and kernel, over the blocks the windows reach.
    """
    x, ends, _ = rows
    degree = order + 1
    start, _, s0, s1, (m, distinct, positive) = window
    # the tests of support_error, on every window at once
    i = np.flatnonzero((m - distinct <= DUPLICATE_FRACTION_LIMIT * m) & (distinct > degree) & (positive > degree))
    centre = 0.5 * ((x[s0[i]] - points[i]) / h + (x[s1[i] - 1] - points[i]) / h)
    # segment 2k holds point k's rows below it, segment 2k + 1 the rest
    mid = np.clip(np.searchsorted(x, points[i], side="left"), s0[i], s1[i])
    lo, hi = np.stack([s0[i], mid], axis=1).ravel(), np.stack([mid, s1[i]], axis=1).ravel()
    p, c, e = np.repeat(points[i], 2), np.repeat(centre, 2), np.repeat(ends[start[i]], 2)
    raw = _segment_sums(rows, blocks, lo, hi, p, c, e, h)
    # each side's kernel polynomial in v; then both sides summed
    poly = [np.tile(pair, i.size) for pair in zip(*_KERNEL_POLY[kernel])]
    coef = [sum(comb(k, q) * poly[k] * c ** (k - q) for k in range(q, len(poly))) for q in range(len(poly))]
    n_pow = blocks[3]
    sums = np.array([sum(cq * raw[k + q] for q, cq in enumerate(coef))
                     for k in (*range(2 * degree + 1), *range(n_pow, n_pow + degree + 1))])
    sums = (sums[:, 0::2] + sums[:, 1::2]).T
    beta = fit_from_moments(sums[:, : 2 * degree + 1], sums[:, 2 * degree + 1 :])
    # the slope at the point, where v = -centre
    slope = degree * beta[:, degree]
    for k in range(degree - 1, 0, -1):
        slope = slope * -centre + k * beta[:, k]
    density = np.full(points.size, np.nan)
    density[i] = slope / n / h
    return floor_density(density)


def boundary_density(xs, eval_point: float, spec: FitSpec) -> tuple[float, bool]:
    """One-sided (or interior) density estimate at ``eval_point``.

    Fits the full-sample empirical CDF locally at ``eval_point`` with a
    polynomial of degree ``spec.order + 1`` and takes its slope. Returns
    ``(density, clipped)``: a non-positive slope is replaced by
    ``DENSITY_FLOOR``, because ratios built downstream need f > 0, and
    ``clipped`` says so. A window too poor for the fit raises the DataError
    of ``support_error``. It is ``density_curve`` at one point, and costs
    one sort of x.
    """
    density, clipped, counts = _density_fits(xs, [eval_point], [spec])
    err = support_error(spec, counts[:, 0].tolist(), cdf=True, solved=not np.isnan(density[0]))
    if err is not None:
        raise err
    return float(density[0]), bool(clipped[0])


def density_curve(xs, eval_points, specs) -> tuple[np.ndarray, np.ndarray]:
    """``boundary_density`` at every point of ``eval_points`` over one sample.

    ``specs[i]`` is the fit at ``eval_points[i]``. Returns ``(densities,
    clipped)`` as float and bool arrays, equal bit for bit to calling
    ``boundary_density`` point by point; where that call would raise a
    DataError the density is NaN and the flag False. x is sorted once, and
    the points that share a bandwidth, order and kernel share one pass of
    block sums over the blocks their windows reach: O(n log n + sum_i
    (_BLOCK + m_i / _BLOCK)) for m_i rows in point i's window, not
    O(sum_i m_i).
    """
    return _density_fits(xs, eval_points, specs)[:2]


def _density_fits(xs, eval_points, specs):
    """``density_curve``'s densities and flags, and each window's rows,
    distinct values and distinct positive-weight values, as the columns of
    a (3, points) array: the counts ``support_error`` reads."""
    points = np.asarray(eval_points, dtype=float)
    if points.ndim != 1 or points.size != len(specs):
        raise InvalidConfig("eval_points must be 1-d with one FitSpec per point")
    x = np.sort(np.asarray(xs, dtype=float))
    # one walk over specs maps each point to its spec object; callers share a
    # few, so side and group are read from the distinct ones
    ids = np.fromiter(map(id, specs), np.uintp, points.size)
    _, first, spec_of = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [specs[i] for i in first]
    left, right = (np.array([s.side is sd for s in distinct], dtype=bool)[spec_of] for sd in (Side.LEFT, Side.RIGHT))
    groups: dict[tuple, int] = {}
    group = np.array([groups.setdefault((s.bandwidth, s.order, s.kernel), len(groups)) for s in distinct], dtype=int)
    group = group[spec_of]
    rows = sorted_rows(x)
    densities, clipped = np.full(points.size, np.nan), np.zeros(points.size, dtype=bool)
    counts = np.zeros((3, points.size), dtype=np.intp)
    for (h, order, kernel), g in groups.items():
        i = np.flatnonzero(group == g)
        window = cdf_windows(rows, points[i], h, kernel, left[i], right[i])
        start, stop, *_, counts[:, i] = window
        # only the blocks the group's windows reach
        blocks = _block_sums(rows, h, order, kernel, start.min() // _BLOCK, stop.max() // _BLOCK)
        # batches of points by their 8-byte temporaries: block columns and edge rows.
        # A batch gets twice the block sums' budget, which halves the batches
        # and their fixed numpy calls: about 4 ms of plotdata's 10k bins on 200k rows
        cost = ((stop - start) // _BLOCK + 2) * 3 * blocks[2].shape[0] + 36 * _BLOCK
        for j in np.split(np.arange(i.size), np.flatnonzero(np.diff(np.cumsum(cost) // (2 * _BATCH_BYTES // 8))) + 1):
            batch = [a[..., j] for a in window]
            densities[i[j]], clipped[i[j]] = _fit_windows(rows, blocks, x.size, points[i[j]], batch, order, h, kernel)
    return densities, clipped, counts


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

    Floored at MIN_BANDWIDTH times the side's largest |x - c|, so degenerate
    sides still return a positive width, and at MIN_BANDWIDTH itself where
    every x on the side is at the cutoff: there every window holds the same
    rows at any width. Scale-equivariant: scaling xs and the cutoff by k
    scales the result by k, exactly for a power of two, floor included.
    """
    xs = np.asarray(xs, dtype=float)
    sub = xs[_side_mask(xs, cutoff, side)]
    if sub.size < 2:
        raise InsufficientData(
            f"need at least 2 observations on side {side.value!r}, got {sub.size}",
            side=side.value,
        )
    bw = 1.06 * sample_sd(sub) * sub.size ** (-0.2)
    # the side's largest |x - c| is twice this; halving is exact above the
    # subnormals, and the halves' difference cannot overflow
    half_reach = float(np.abs(sub / 2 - cutoff / 2).max())
    return max(bw, 2 * MIN_BANDWIDTH * half_reach or MIN_BANDWIDTH)
