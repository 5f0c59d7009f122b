"""Replicate-keyed nonparametric bootstrap of the boundary fits at a cutoff.

Replicate i resamples the rows with a generator seeded by (seed, DRAW_KEY,
i), so results do not depend on execution order or worker count.

``build_plan`` prepares one analysis: on each side of the cutoff the
outcome's mean, the density and every covariate's mean on the outcome's
mean window. A resample is a vector of multinomial(n, 1/n) row counts
(Efron 1979) and every fit is a weighted moment sum, so ``evaluate``
solves all the fits for any counts without re-fitting rows. All-ones
counts are the sample itself: the point estimates solve the equations
every replicate solves, and ``sharp_window`` and ``sample_means`` read the
sharp bound's window and the treatment's means from the same plan. Only
the m rows in the union of the four windows enter a fit, so a replicate
draws a window total k ~ Binomial(n, m/n), then k uniform draws over the
window rows in original-index order: the same law at O(m), and a function
of the rows, not of their x order. One ``bincount`` of the draws gives the
counts in original-index order, and one permutation by the plan's ``rank``
puts them in x order.

Each side keeps a C-ordered matrix of moment rows over its window rows:
the mean weights w*u^k (k <= 2d), the CDF weights (k <= 2d + 2) and the
outcome's w*u^k*y (k <= d). The covariates' rows form a second matrix, so
the boundary draws are the same bits whichever covariates are requested.
On the default density spec, the mean spec's bandwidth and kernel, the CDF
weights for k <= 2d are the mean weight rows, and only two more are stored.
The counts times the rows give every mean fit's normal equations; the
running count through each tie group's last row, times the counts and the
CDF weights, gives the CDF fit's (Cattaneo, Jansson & Ma 2020). Rows below
the window only add a constant to that count, which moves the intercept
and not the slope. The densities are the slopes over n h, floored by
``floor_density``.

The sums never go through BLAS, whose threaded kernels sum in an order set
by the thread count: ``np.einsum`` sums fixed blocks of window rows and
``np.sum`` adds the block sums pairwise, so the bits depend on neither the
chunk, the worker count nor the BLAS thread count. The einsum runs over
tiles of SUM_TILE blocks, so a tile of the moment rows stays in cache while
every replicate of the chunk reads it; a block's sum is the same whatever
tile it is in.

A fit fails on a replicate (a NaN cell) where its window drew fewer
distinct positive-weight values than the fit has coefficients, or where
``fit_from_moments`` finds its normal equations singular: their Gram,
scaled to unit diagonal, has a determinant at or below SINGULAR_DET
(6.2e-13), as where the window drew only rows whose u differ in the last
bits. The support checks count the nonzero counts, or the nonzero sums of
the counts over each tie group. Chunks are fixed by replicate index and
sized from the window under a byte budget; workers share out whole chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, TooManyFailedReplicates
from .localfit import (
    FitSpec,
    Side,
    density_window,
    fit_from_moments,
    floor_density,
    kernel_weight,
    local_weights,
    weighted_powers,
)

MIN_REPLICATES = 50
DEFAULT_B = 500
MAX_FAILURE_FRACTION = 0.10
#: Largest level: above it the one-sided normal quantile is negative, and an
#: Imbens-Manski interval would lie inside the identified set.
MAX_ALPHA = 0.5
#: Bytes of window counts per chunk of replicates; sets the chunk length. A
#: chunk holds its counts and their running counts, each at most this size.
CHUNK_BYTES = 1 << 21
#: Window rows per block of a moment sum; blocks are fixed by row, not by chunk.
SUM_BLOCK = 256
#: Blocks per einsum call of a moment sum: 32 blocks of a moment row are 64 KB.
SUM_TILE = 32

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


@dataclass(frozen=True)
class _SidePlan:
    rows: slice  # the side's window rows, as columns of the counts
    # (K, rows), C order: the mean weights w*u^k (k = 0..2d), the CDF weights
    # w*u^k (k = 0..2d + 2) from row cdf_row on, then the outcome's value
    # rows w*u^k*y (k = 0..d) last. With cdf_row 0 the CDF weights continue
    # the mean weights, whose rows they equal bit for bit.
    moments: np.ndarray
    covariates: np.ndarray  # (c (d + 1), rows): w*u^k*v (k = 0..d) of each covariate v
    cdf_row: int
    mean_groups: tuple[int, int]  # tie groups holding the mean window's positive-weight rows
    density_groups: tuple[int, int]  # tie groups holding the CDF window's positive-weight rows
    density_scale: float  # 1 / (n h) of the density's CDF fit
    mean_counts: tuple[int, int, int]  # the sample's mean window, as support_error takes it
    density_counts: tuple[int, int, int]  # the sample's CDF window, likewise


@dataclass(frozen=True)
class Plan:
    n: int
    degree: int  # of the mean fits; the CDF fits are one degree above
    index: np.ndarray  # original index of each window row, the rows taken in x order
    rank: np.ndarray  # each window row's place among the window rows by original index, in x order
    group_starts: np.ndarray | None  # first row of each tie group; None without ties
    group_end: np.ndarray | None  # last row of each row's tie group; None without ties
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


def build_plan(xs: np.ndarray, cutoff: float, fit, values) -> Plan:
    """Windows, tie groups and moment columns shared by every replicate.

    ``fit`` is a FitConfig with resolved bandwidths; ``values`` are the
    outcome, then each covariate, as columns as long as ``xs``.
    """
    xs = np.asarray(xs, dtype=float)
    n, d = xs.size, fit.order
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
    if new_group.all():
        group_starts = group_end = None
    else:
        group_starts = np.flatnonzero(new_group)
        group_end = np.append(group_starts[1:], m)[np.cumsum(new_group) - 1] - 1

    def groups(lo, hi):
        # the tie groups of rows lo and hi - 1, counted by their first rows
        return (np.count_nonzero(new_group[: lo + 1]) - 1, np.count_nonzero(new_group[:hi])) if hi > lo else (0, 0)

    ys, *covariates = (np.asarray(v, dtype=float) for v in values)
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
        moments = np.zeros((cdf_row + 3 * d + 4, rows.stop - rows.start))
        cov_moments = np.zeros((len(covariates) * (d + 1), rows.stop - rows.start))
        # the windows as columns of the side's matrices; an empty one slices nothing
        cols, c_cols = slice(lo - rows.start, hi - rows.start), slice(c_lo - rows.start, c_hi - rows.start)
        u = (window[lo:hi] - cutoff) / mean.bandwidth
        w = kernel_weight(u, mean.kernel)
        top = 2 * d + 2 if shared else 2 * d
        weighted_powers(u, w, top, moments[: top + 1, cols])
        weighted_powers(u, w * ys[index[lo:hi]], d, moments[-(d + 1) :, cols])
        for j, v in enumerate(covariates):
            weighted_powers(u, w * v[index[lo:hi]], d, cov_moments[j * (d + 1) : (j + 1) * (d + 1), cols])
        if not shared:
            u = (window[c_lo:c_hi] - cutoff) / dens.bandwidth
            weighted_powers(u, kernel_weight(u, dens.kernel), 2 * d + 2, moments[cdf_row : cdf_row + 2 * d + 3, c_cols])
        plans.append(_SidePlan(
            rows, moments, cov_moments, cdf_row, groups(lo, hi), groups(c_lo, c_hi),
            1.0 / (max(n, 1) * dens.bandwidth), mean_counts, cdf_counts,
        ))
    chunk = max(1, CHUNK_BYTES // (8 * max(m, 1)))
    return Plan(n, d, index, rank, group_starts, group_end, tuple(plans), chunk)


def _ranks(places: np.ndarray, size: int) -> np.ndarray:
    """The rank of each of the distinct ``places`` in [0, size) among them,
    from a mask over [0, size), not a sort."""
    kept = np.zeros(size, dtype=bool)
    kept[places] = True
    return np.cumsum(kept)[places] - 1


def _supported(drawn: np.ndarray, groups: tuple[int, int], degree: int) -> np.ndarray:
    """Replicates that drew more distinct values of a window than ``degree``:
    at least as many as a fit of that degree has coefficients. ``drawn``
    holds each replicate's count of every distinct x value."""
    g_lo, g_hi = groups
    window = drawn[:, g_lo:g_hi]
    # the first few groups of a well-filled window settle almost every replicate
    ok = np.count_nonzero(window[:, :64], axis=1) > degree
    return ok if ok.all() else np.count_nonzero(window, axis=1) > degree


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
    SUM_BLOCK rows of one replicate, SUM_TILE blocks per call; ``np.sum``
    adds the block sums pairwise and the last partial block is added after,
    an order fixed by the window.
    """
    r, width = counts.shape
    k, blocks = moments.shape[0], width // SUM_BLOCK
    full = blocks * SUM_BLOCK
    counts_by_block = counts[:, :full].reshape(r, blocks, SUM_BLOCK)
    moments_by_block = moments[:, :full].reshape(k, blocks, SUM_BLOCK)
    block_sums = np.empty((r, k, blocks))
    for t in range(0, blocks, SUM_TILE):
        tile = slice(t, t + SUM_TILE)
        np.einsum("rbi,kbi->rkb", counts_by_block[:, tile], moments_by_block[:, tile], out=block_sums[:, :, tile])
    return block_sums.sum(axis=2) + np.einsum("ri,ki->rk", counts[:, full:], moments[:, full:])


def evaluate(plan: Plan, counts: np.ndarray) -> np.ndarray:
    """The fits on each row of ``counts``, a resample's counts of the window
    rows in x order, as ``run_replicates``' columns, NaN where a fit failed.
    All-ones counts are the sample itself."""
    d = plan.degree
    r, c = counts.shape[0], plan.sides[0].covariates.shape[0] // (d + 1)
    # each resample's count of every distinct x value, for the support checks
    drawn = counts if plan.group_starts is None else np.add.reduceat(counts, plan.group_starts, axis=1)
    # resample rows in the window at or below each row's value: the CDF up
    # to a constant and the factor n, both folded into the slope's scale
    running = np.cumsum(counts, axis=1)
    # take, not fancy indexing: C order keeps every sum on numpy's contiguous loop
    cdf = running if plan.group_end is None else np.take(running, plan.group_end, axis=1)
    cdf *= counts
    out = np.full((r, 4 + 2 * c), np.nan)
    for i, side in enumerate(plan.sides):
        rows, k = side.rows, side.cdf_row
        side_counts = counts[:, rows]
        sums = _moment_sums(side_counts, side.moments)
        cdf_sums = _moment_sums(cdf[:, rows], side.moments[k : k + d + 2])
        ok = _supported(drawn, side.density_groups, d + 1)
        beta = fit_from_moments(sums[ok, k : k + 2 * d + 3], cdf_sums[ok])
        out[ok, 2 + i] = floor_density(beta[:, 1] * side.density_scale)[0]
        # the outcome's and every covariate's value sums share the side's mean weights
        value_sums = sums[:, None, -(d + 1) :]
        if c:
            cov_sums = _moment_sums(side_counts, side.covariates).reshape(r, c, d + 1)
            value_sums = np.concatenate([value_sums, cov_sums], axis=1)
        ok = _supported(drawn, side.mean_groups, d)
        levels = fit_from_moments(sums[ok, None, : 2 * d + 1], value_sums[ok])[..., 0]
        out[ok, i] = levels[:, 0]
        out[ok, 4 + i :: 2] = levels[:, 1:]
    return out


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
    d = plan.degree
    levels = []
    for side in plan.sides:
        weights = side.moments[: 2 * d + 1]
        rows = np.concatenate([weights, weights[: d + 1] * values[plan.index[side.rows]]])
        sums = _moment_sums(np.ones((1, rows.shape[1])), rows)
        levels.append(float(fit_from_moments(sums[:, : 2 * d + 1], sums[:, 2 * d + 1 :])[0, 0]))
    return levels[0], levels[1]


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
