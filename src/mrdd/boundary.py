"""Boundary statistics at the cutoff, and the one bootstrap pass that estimates them.

Every bound and test reads the data through five numbers at the cutoff:
mu_plus, mu_minus, f_plus, f_minus and r = f_minus / f_plus.
``build_plan`` plans one analysis: it checks the columns it fits, fills in
the bandwidths and keeps that fit for every solve on the plan; on each side
of the cutoff it prepares the outcome's mean, the density and every
covariate's mean on the outcome's mean window. A resample is a vector of multinomial(n, 1/n) row counts
(Efron 1979) and every fit is a weighted moment sum, so ``evaluate``
solves all the fits for any counts without re-fitting rows. The sample is
replicate zero: its all-ones counts give the point estimates
(``sample_estimates``, behind ``estimate_boundary``) from the equations
every replicate solves, and ``sharp_window`` and ``sample_means`` read the
sharp bound's window and the treatment's means from the same plan.

Replicate i resamples the rows with a generator seeded by (seed, DRAW_KEY,
i), so results do not depend on execution order or worker count. Only
the m rows in the union of the four windows enter a fit, so a replicate
draws a window total k ~ Binomial(n, m/n), then k uniform draws over the
window rows in original-index order: the same law at O(m), and a function
of the rows, not of their x order. One ``bincount`` of the draws gives the
counts in original-index order, and one permutation by the plan's ``rank``
puts them in x order.

Each side keeps one C-ordered matrix of moment rows over its window rows:
the mean weights w*u^k (k <= 2d), the CDF weights (k <= 2d + 2), then the
outcome's and each covariate's value rows w*u^k*v (k <= d). Every sum of a
row is taken on its own, so the boundary draws are the same bits whichever
covariates are requested. On the default density spec, the mean spec's
bandwidth and kernel, the CDF weights for k <= 2d are the mean weight rows,
and only two more are stored.
The counts times the rows give every mean fit's normal equations; the
running count through each tie group's last row, times the counts and the
CDF weights, gives the CDF fit's (Cattaneo, Jansson & Ma 2020). Rows below
the window only add a constant to that count, which moves the intercept
and not the slope. The densities are the slopes over n h, floored by
``floor_density``.

The sums never go through BLAS, whose threaded kernels sum in an order set
by the thread count: ``np.einsum`` sums fixed blocks of window rows and
``np.sum`` adds the block sums pairwise, so the bits depend on neither the
chunk, the worker count, the BLAS thread count nor the other moment rows.

A fit fails on a replicate (a NaN cell) where ``fit_from_moments`` finds
its normal equations singular: their Gram, scaled to unit diagonal, has a
determinant at or below SINGULAR_DET (6.2e-13). That one rank test decides
every failed fit, with no support check before it. A window that drew
fewer distinct positive-weight values than the fit has coefficients has an
exactly singular Gram, whose scaled determinant rounding leaves at about
1.2e-14 at most, 50 times below SINGULAR_DET; a window that drew only rows
whose u differ in the last bits fails the same way. One call solves both
sides' density fits and one both sides' mean fits. Chunks are fixed by
replicate index and sized from the window under a byte budget; workers
share out whole chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from .errors import InvalidConfig, InvalidInputs, InvalidOutcomeRange, UnknownCovariate
from .localfit import (
    DENSITY_FLOOR, FitSpec, KernelKind, Side, check_order, density_window, fit_from_moments, floor_density,
    kernel_weight, local_weights, rot_bandwidth, support_error, weighted_powers,
)

MIN_REPLICATES = 50
DEFAULT_B = 500
#: Largest level: above it the one-sided normal quantile is negative, and an
#: Imbens-Manski interval would lie inside the identified set.
MAX_ALPHA = 0.5
#: Bytes of window counts per chunk of replicates; sets the chunk length. A
#: chunk holds its counts and their running counts, each at most this size.
CHUNK_BYTES = 1 << 21
#: Window rows per block of a moment sum; blocks are fixed by row, not by chunk.
SUM_BLOCK = 256

#: The middle term of every draw key (seed, DRAW_KEY, replicate). It is 3,
#: the bounds bootstrap's key from when each test drew its own stream, so
#: the bounds keep their draws.
DRAW_KEY = 3


def check_alpha(alpha: float, error: type[Exception]) -> None:
    """Raise ``error`` unless the level lies in (0, MAX_ALPHA]; NaN lies outside."""
    if not (0.0 < alpha <= MAX_ALPHA):
        raise error(f"alpha must lie in (0, {MAX_ALPHA}], got {alpha}")


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Generator keyed by (seed, DRAW_KEY, replicate); stable across schedules and workers."""
    return np.random.default_rng([int(seed), DRAW_KEY, int(replicate)])


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicates, seed, test level and worker threads shared by every bootstrap of an analysis."""

    b: int = DEFAULT_B
    seed: int = 0
    alpha: float = 0.05
    workers: int = 1

    def __post_init__(self):
        if self.b < MIN_REPLICATES:
            raise InvalidConfig(f"bootstrap replication count must be >= {MIN_REPLICATES}, got {self.b}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a nonnegative integer, got {self.seed}")
        check_alpha(self.alpha, InvalidConfig)
        if self.workers < 1:
            raise InvalidConfig("workers must be at least 1")


def _require_finite(column: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInputs(
            f"column {column!r} has a non-finite value ({values[bad[0]]}) at index {bad[0]}"
        )


def _require_same_length(column: str, values: np.ndarray, xs: np.ndarray) -> None:
    if values.shape != xs.shape:
        raise InvalidInputs(
            f"column {column!r} has shape {values.shape}, column 'x' has {xs.shape}"
        )


@dataclass(frozen=True)
class Dataset:
    """Observations plus the design constants.

    ``xs`` is the running variable, ``ys`` the outcome, ``d`` an optional
    binary treatment column and ``covariates`` a name -> column mapping.
    ``y_low``/``y_high`` declare the logical outcome range used by the
    bounds; both may be None when only tests are run. Every value must be
    finite, every column as long as ``xs`` and ``d`` binary; a violation
    raises InvalidInputs naming the column.
    """

    xs: np.ndarray
    ys: np.ndarray
    cutoff: float
    y_low: float | None = None
    y_high: float | None = None
    d: np.ndarray | None = None
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1:
            raise InvalidInputs(f"column 'x' must be 1-d, got shape {xs.shape}")
        _require_same_length("y", ys, xs)
        _require_finite("x", xs)
        _require_finite("y", ys)
        if not np.isfinite(self.cutoff):
            raise InvalidConfig("cutoff must be finite")
        if self.d is not None:
            d = np.asarray(self.d, dtype=float)
            object.__setattr__(self, "d", d)
            _require_same_length("d", d, xs)
            _require_finite("d", d)
            if not np.all((d == 0) | (d == 1)):
                raise InvalidInputs("treatment column 'd' must be binary 0/1")
        covs = {}
        for name, col in self.covariates.items():
            col = np.asarray(col, dtype=float)
            _require_same_length(name, col, xs)
            _require_finite(name, col)
            covs[name] = col
        object.__setattr__(self, "covariates", covs)
        if self.y_low is not None and self.y_high is not None:
            if self.y_low > self.y_high:
                raise InvalidOutcomeRange(f"y_low {self.y_low} > y_high {self.y_high}")
            if ys.size and (ys.min() < self.y_low or ys.max() > self.y_high):
                raise InvalidOutcomeRange(
                    f"observed outcomes [{ys.min()}, {ys.max()}] fall outside "
                    f"the declared range [{self.y_low}, {self.y_high}]"
                )

    @property
    def n(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class Bandwidths:
    """Per-side, per-object bandwidths; None means rule-of-thumb default.

    A given bandwidth that is not positive and finite raises InvalidConfig.
    """

    mean_left: float | None = None
    mean_right: float | None = None
    dens_left: float | None = None
    dens_right: float | None = None

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if value is not None and not (value > 0 and np.isfinite(value)):
                raise InvalidConfig(f"bandwidth {item.name} must be positive and finite, got {value}")

    def resolved(self, xs: np.ndarray, cutoff: float) -> "Bandwidths":
        """Fill missing entries with rot_bandwidth on the matching side.

        Means and densities share one rule-of-thumb value per side, so each
        side's is computed at most once.
        """
        rot: dict[Side, float] = {}

        def pick(value, side):
            if value is not None:
                return value
            if side not in rot:
                rot[side] = rot_bandwidth(xs, side, cutoff)
            return rot[side]

        return Bandwidths(
            mean_left=pick(self.mean_left, Side.LEFT),
            mean_right=pick(self.mean_right, Side.RIGHT),
            dens_left=pick(self.dens_left, Side.LEFT),
            dens_right=pick(self.dens_right, Side.RIGHT),
        )


@dataclass(frozen=True)
class SideCounts:
    mean_left: int
    mean_right: int
    dens_left: int
    dens_right: int


@dataclass(frozen=True)
class FitConfig:
    """Order, kernel and bandwidths shared by the four one-sided boundary fits.

    The means and the densities use the same polynomial order; each
    density's CDF fit is one degree above it.
    """

    order: int = 1
    kernel: KernelKind = KernelKind.TRIANGULAR
    bandwidths: Bandwidths = Bandwidths()

    def __post_init__(self):
        check_order(self.order)

    def resolved(self, xs: np.ndarray, cutoff: float) -> "FitConfig":
        """The same configuration with every bandwidth filled in."""
        return replace(self, bandwidths=self.bandwidths.resolved(xs, cutoff))

    def mean_spec(self, side: Side) -> FitSpec:
        """The one-sided mean fit on ``side``; needs resolved bandwidths."""
        bw = self.bandwidths
        return self._spec(bw.mean_left if side is Side.LEFT else bw.mean_right, side)

    def density_spec(self, side: Side) -> FitSpec:
        """The one-sided density fit on ``side``; needs resolved bandwidths."""
        bw = self.bandwidths
        return self._spec(bw.dens_left if side is Side.LEFT else bw.dens_right, side)

    def _spec(self, bandwidth: float | None, side: Side) -> FitSpec:
        if bandwidth is None:
            raise InvalidConfig("resolve the bandwidths before building a fit")
        return FitSpec(self.order, bandwidth, self.kernel, side)


@dataclass(frozen=True)
class BoundaryEstimates:
    """The five boundary statistics plus bookkeeping.

    ``r`` always equals ``f_minus / f_plus``; it is reported raw even above
    one (the bound operations decide what to do with that).
    """

    mu_plus: float
    mu_minus: float
    f_plus: float
    f_minus: float
    r: float
    bandwidths: Bandwidths
    n_effective: SideCounts
    warnings: tuple[str, ...] = ()


def estimate_boundary(data: Dataset, config: FitConfig = FitConfig()) -> BoundaryEstimates:
    """Estimate (mu_plus, mu_minus, f_plus, f_minus, r) at the cutoff.

    Means come from one-sided local polynomial intercepts on (x, y);
    densities from one-sided local CDF fits, on ``build_plan``'s plan, which
    fills in missing bandwidths by the rule of thumb per side. A warning
    flag is recorded when the density ratio exceeds one, against the
    direction f(c-) <= f(c+) the bounds maintain. A side that cannot be
    estimated raises a labeled DataError.
    """
    return sample_estimates(build_plan(data, config))[0]


@dataclass(frozen=True)
class _SidePlan:
    """One side's window rows and moment rows. Its counts of the sample's
    windows label the sample's DataErrors; a replicate's fit fails by the
    rank test on its sums alone."""

    rows: slice  # the side's window rows, as columns of the counts
    # (K, rows), C order: the mean weights w*u^k (k = 0..2d), the CDF weights
    # w*u^k (k = 0..2d + 2) from row cdf_row on, then from row cdf_row + 2d + 3
    # the value rows w*u^k*v (k = 0..d) of the outcome and each covariate v.
    # With cdf_row 0 the CDF weights continue the mean weights, whose rows
    # they equal bit for bit.
    moments: np.ndarray
    cdf_row: int
    mean_counts: tuple[int, int, int]  # the sample's mean window, as support_error takes it
    density_counts: tuple[int, int, int]  # the sample's CDF window, likewise


@dataclass(frozen=True)
class Plan:
    """What every replicate of one analysis shares: the fits with their
    resolved bandwidths, how its draws index the window rows, the tie groups
    the CDF fits count through, both sides' moment rows and the chunk length."""

    n: int
    fit_config: FitConfig  # resolved; the mean fits' order, the CDF fits one above
    index: np.ndarray  # original index of each window row, the rows taken in x order
    rank: np.ndarray  # each window row's place among the window rows by original index, in x order
    group_end: np.ndarray | None  # last row of each row's tie group, for the CDF fits; None without ties
    sides: tuple[_SidePlan, _SidePlan]  # right, left
    chunk: int


def _window(xs_sorted, cutoff, spec: FitSpec, cdf: bool):
    """The sorted-row range of the rows with positive weight in the mean fit
    on ``spec``, or with ``cdf`` in the CDF fit behind its density, and the
    fit's ``support_error`` counts on the sample. Membership uses the
    per-row fits' own tests, so they agree on every edge point."""
    h = spec.bandwidth
    lo = int(np.searchsorted(xs_sorted, cutoff - 2.0 * h, side="left"))
    hi = int(np.searchsorted(xs_sorted, cutoff + 2.0 * h, side="right"))
    seg = xs_sorted[lo:hi]
    if cdf:
        inside = density_window(seg, cutoff, spec)
        rows = inside & (kernel_weight((seg - cutoff) / h, spec.kernel) > 0)
    else:
        inside = rows = local_weights(seg, cutoff, spec)[2]

    def span(mask):
        at = np.flatnonzero(mask)
        return (lo + int(at[0]), lo + int(at[-1]) + 1) if at.size else (lo, lo)

    def distinct(values):
        return int(np.count_nonzero(values[1:] != values[:-1])) + 1 if values.size else 0

    (a, b), (c, d) = span(inside), span(rows)
    # the mean fit's design is in u, where x values closer than h's rounding are one
    fitted = xs_sorted[c:d] if cdf else (xs_sorted[c:d] - cutoff) / h
    return (c, d), (b - a, distinct(xs_sorted[a:b]), distinct(fitted))


def build_plan(data: Dataset, fit: FitConfig, covariates: tuple[str, ...] = ()) -> Plan:
    """Windows, tie groups and moment columns shared by every replicate.

    The fits sum the outcome, then each named covariate: a name the data
    lacks raises UnknownCovariate. Every fit sums w u^k v over counts that
    total at most n, with w and |u| at most one, so n times a column's
    largest magnitude bounds its sums; a column where that overflows raises
    InvalidInputs naming it, since a NaN fit would read as singular
    equations. Then the rule of thumb fills in the bandwidths ``fit``
    lacks, and the plan keeps that resolved fit for every solve on it.
    """
    for name in covariates:
        if name not in data.covariates:
            raise UnknownCovariate(f"covariate {name!r} not present; have {sorted(data.covariates)}")
    columns = [("y", data.ys), *((name, data.covariates[name]) for name in covariates)]
    for name, values in columns:
        largest = float(np.abs(values).max()) if values.size else 0.0
        if np.isinf(largest * values.size):
            raise InvalidInputs(
                f"column {name!r} has values up to {largest} in magnitude: "
                f"their sums over {values.size} rows overflow a float"
            )
    fit = fit.resolved(data.xs, data.cutoff)
    xs, cutoff, n, d = data.xs, data.cutoff, data.n, fit.order
    sides = (Side.RIGHT, Side.LEFT)
    specs = [(fit.mean_spec(side), fit.density_spec(side)) for side in sides]
    # a window keeps a row by u = fl(fl(x - c) / h), so rows a few ulps past
    # fl(c - h) can be in it (tests/test_bootstrap.py has such a sample):
    # reach twice the bandwidth, not once. The stable sort of those rows
    # keeps tied rows in original-index order, and its permutation ranks
    # each sorted row among them by original index
    right, left = (2.0 * max(spec.bandwidth for spec in pair) for pair in specs)
    order = np.flatnonzero(np.where(xs < cutoff, xs >= cutoff - left, xs <= cutoff + right))
    rank = np.argsort(xs[order], kind="stable")
    order = order[rank]
    xs_sorted = xs[order]
    windows = [
        (_window(xs_sorted, cutoff, mean, cdf=False), _window(xs_sorted, cutoff, dens, cdf=True))
        for mean, dens in specs
    ]
    spans = [(lo, hi) for pair in windows for (lo, hi), _ in pair if hi > lo]
    if spans:
        a, b = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    else:
        a = b = int(np.searchsorted(xs_sorted, cutoff))
    m = b - a
    window = xs_sorted[a:b]
    split = int(np.searchsorted(window, cutoff, side="left"))
    rank = _ranks(rank[a:b], rank.size)  # among the window rows alone

    new_group = np.ones(m, dtype=bool)
    new_group[1:] = window[1:] != window[:-1]
    group_end = None
    if not new_group.all():
        starts = np.flatnonzero(new_group)
        group_end = np.append(starts[1:], m)[np.cumsum(new_group) - 1] - 1

    # a copy, so that the plan does not keep the whole reach's order alive
    index = order[a:b].copy()
    del order
    plans = []
    for side, (mean, dens), ((mean_span, mean_counts), (cdf_span, cdf_counts)) in zip(sides, specs, windows):
        rows = slice(split, m) if side is Side.RIGHT else slice(0, split)
        (lo, hi), (c_lo, c_hi) = ((lo - a, hi - a) for lo, hi in (mean_span, cdf_span))
        # on the default density spec, the mean spec's bandwidth and kernel,
        # both windows and so u and w are one: the CDF weights of powers up
        # to 2d are the mean weights, and only the two above them are stored
        shared = (dens.bandwidth, dens.kernel, c_lo, c_hi) == (mean.bandwidth, mean.kernel, lo, hi)
        cdf_row = 0 if shared else 2 * d + 1
        first = cdf_row + 2 * d + 3  # the outcome's first value row
        moments = np.zeros((first + len(columns) * (d + 1), rows.stop - rows.start))
        # the windows as columns of the side's matrix; an empty one slices nothing
        cols, c_cols = slice(lo - rows.start, hi - rows.start), slice(c_lo - rows.start, c_hi - rows.start)
        u = (window[lo:hi] - cutoff) / mean.bandwidth
        w = kernel_weight(u, mean.kernel)
        top = 2 * d + 2 if shared else 2 * d
        weighted_powers(u, w, top, moments[: top + 1, cols])
        for j, (_, v) in enumerate(columns):
            at = first + j * (d + 1)
            weighted_powers(u, w * v[index[lo:hi]], d, moments[at : at + d + 1, cols])
        if not shared:
            u = (window[c_lo:c_hi] - cutoff) / dens.bandwidth
            weighted_powers(u, kernel_weight(u, dens.kernel), 2 * d + 2, moments[cdf_row:first, c_cols])
        plans.append(_SidePlan(rows, moments, cdf_row, mean_counts, cdf_counts))
    chunk = max(1, CHUNK_BYTES // (8 * max(m, 1)))
    return Plan(n, fit, index, rank, group_end, tuple(plans), chunk)


def _ranks(places: np.ndarray, size: int) -> np.ndarray:
    """The rank of each of the distinct ``places`` in [0, size) among them,
    from a mask over [0, size), not a sort."""
    kept = np.zeros(size, dtype=bool)
    kept[places] = True
    return np.cumsum(kept)[places] - 1


def _draw_counts(plan: Plan, reps: range, seed: int) -> np.ndarray:
    """Each replicate's resample counts of the window rows, in x order: the
    draws index the window rows by original index, and ``rank`` permutes
    their counts."""
    n, m = plan.n, plan.rank.size
    counts = np.empty((len(reps), m))
    for j, rep in enumerate(reps):
        g = replicate_rng(seed, rep)
        draws = g.integers(0, m, g.binomial(n, m / n))
        counts[j] = np.bincount(draws, minlength=m)[plan.rank]
    return counts


def _moment_sums(counts: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """``sum_i counts[r, i] * moments[k, i]`` for every replicate r and row k.

    ``np.einsum`` without ``optimize``, never BLAS, sums each block of
    SUM_BLOCK rows of one replicate and one moment row on its own;
    ``np.sum`` adds the block sums pairwise and the last partial block is
    added after, an order fixed by the window.
    """
    r, width = counts.shape
    k, blocks = moments.shape[0], width // SUM_BLOCK
    full = blocks * SUM_BLOCK
    block_sums = np.einsum(
        "rbi,kbi->rkb", counts[:, :full].reshape(r, blocks, SUM_BLOCK), moments[:, :full].reshape(k, blocks, SUM_BLOCK)
    )
    return block_sums.sum(axis=2) + np.einsum("ri,ki->rk", counts[:, full:], moments[:, full:])


def evaluate(plan: Plan, counts: np.ndarray) -> np.ndarray:
    """The fits on each row of ``counts``, a resample's counts of the window
    rows in x order, as ``run_replicates``' columns, NaN where a fit failed."""
    d, r = plan.fit_config.order, counts.shape[0]
    # resample rows in the window at or below each row's value: the CDF up
    # to a constant and the factor n, both folded into the slope's scale
    running = np.cumsum(counts, axis=1)
    # take, not fancy indexing: C order keeps every sum on numpy's contiguous loop
    cdf = running if plan.group_end is None else np.take(running, plan.group_end, axis=1)
    cdf *= counts
    # each side's sums, right then left, stacked into one solve per kind of fit
    cdf_weights, cdf_values, weights, values = [], [], [], []
    for side in plan.sides:
        rows, k = side.rows, side.cdf_row
        sums = _moment_sums(counts[:, rows], side.moments)
        cdf_weights.append(sums[:, k : k + 2 * d + 3])
        cdf_values.append(_moment_sums(cdf[:, rows], side.moments[k : k + d + 2]))
        weights.append(sums[:, None, : 2 * d + 1])
        # the outcome's and every covariate's value sums share the side's mean weights
        values.append(sums[:, k + 2 * d + 3 :].reshape(r, -1, d + 1))
    slopes = fit_from_moments(np.stack(cdf_weights), np.stack(cdf_values))[..., 1]
    bw = plan.fit_config.bandwidths
    scales = 1.0 / (max(plan.n, 1) * np.array([[bw.dens_right], [bw.dens_left]]))  # 1 / (n h), right then left
    levels = fit_from_moments(np.stack(weights), np.stack(values))[..., 0]  # (side, replicate, value)
    out = np.empty((r, 2 + 2 * levels.shape[2]))
    out[:, :2] = levels[:, :, 0].T
    out[:, 2:4] = floor_density(slopes * scales)[0].T
    out[:, 4:] = levels[:, :, 1:].transpose(1, 2, 0).reshape(r, -1)
    return out


def sample_estimates(plan: Plan) -> tuple[BoundaryEstimates, np.ndarray]:
    """The boundary statistics of the sample ``plan`` was built on, and the
    row of ``evaluate`` they come from, on all-ones counts. The first fit
    that cannot be made raises its labeled DataError."""
    fit = plan.fit_config
    row = evaluate(plan, np.ones((1, plan.index.size)))[0]
    mu_plus, mu_minus, f_plus, f_minus = (float(v) for v in row[:4])
    right, left = plan.sides
    # the densities first, so a sample the density test cannot fit reports that first
    checks = (
        (Side.LEFT, True, fit.density_spec(Side.LEFT), left.density_counts, f_minus),
        (Side.RIGHT, True, fit.density_spec(Side.RIGHT), right.density_counts, f_plus),
        (Side.LEFT, False, fit.mean_spec(Side.LEFT), left.mean_counts, mu_minus),
        (Side.RIGHT, False, fit.mean_spec(Side.RIGHT), right.mean_counts, mu_plus),
    )
    for side, cdf, spec, counts, value in checks:
        err = support_error(spec, counts, cdf, solved=not np.isnan(value))
        if err is not None:
            err.args = (f"{side.value} {'density' if cdf else 'mean'} fit: {err}",)
            raise err
    # a fit at the floor was floored: its slope was not positive
    notes = [f"density_clipped_{side}" for side, f in (("left", f_minus), ("right", f_plus)) if f == DENSITY_FLOOR]
    r = f_minus / f_plus
    if r > 1.0:
        notes.append("density_ratio_above_one")
    counts = SideCounts(left.mean_counts[0], right.mean_counts[0], left.density_counts[0], right.density_counts[0])
    return BoundaryEstimates(mu_plus, mu_minus, f_plus, f_minus, r, fit.bandwidths, counts, tuple(notes)), row


def sharp_window(plan: Plan, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right mean fit's kernel weights and the outcomes ``ys`` of the
    sample at their rows, over the rows with positive weight, taken in
    original-row order: the window the sharp bound trims."""
    right = plan.sides[0]
    # the x position of each window row, the rows taken by original index
    by_index = np.empty_like(plan.rank)
    by_index[plan.rank] = np.arange(plan.rank.size)
    at = by_index[by_index >= right.rows.start]
    w = right.moments[0, at - right.rows.start]
    keep = w > 0
    return w[keep], ys[plan.index[at[keep]]]


def sample_means(plan: Plan, values: np.ndarray) -> tuple[float, float]:
    """The right and left mean fits of ``values``, a column of the sample:
    the levels that solve each side's mean-fit moment equations on the
    sample, with ``values`` in place of the outcome. No replicate evaluates
    them."""
    d = plan.fit_config.order
    sums = []
    for side in plan.sides:
        weights = side.moments[: 2 * d + 1]
        rows = np.concatenate([weights, weights[: d + 1] * values[plan.index[side.rows]]])
        sums.append(_moment_sums(np.ones((1, rows.shape[1])), rows))
    sums = np.stack(sums)  # (side, 1, moment), right then left
    right, left = fit_from_moments(sums[..., : 2 * d + 1], sums[..., 2 * d + 1 :])[:, 0, 0]
    return float(right), float(left)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, which follows taskset and container CPU sets, else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replicates(plan: Plan, b: int, seed: int, workers: int = 1) -> np.ndarray:
    """``evaluate`` on ``b`` keyed row resamples of the sample ``plan`` was built on.

    Returns a (b, 4 + 2 c) array, c the plan's covariates, with the columns
    (mu_plus, mu_minus, f_plus, f_minus), then the right and left means of
    each covariate, NaN where a fit failed on a replicate.
    """

    def one(start):
        return evaluate(plan, _draw_counts(plan, range(start, min(start + plan.chunk, b)), seed))

    starts = range(0, b, plan.chunk)
    # each thread holds its chunk's counts and sums while it evaluates; past
    # the usable CPUs a thread adds those temporaries but no speed. One
    # chunk runs serially.
    workers = min(workers, len(starts), usable_cpus())
    if workers > 1:
        # concurrent.futures loads logging too; a one-worker run imports neither
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(one, starts)))
    return np.concatenate([one(start) for start in starts])

