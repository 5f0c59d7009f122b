"""Replicate-keyed nonparametric bootstrap of the boundary fits at a cutoff.

Every replicate draws its row resample from a generator seeded by
(seed, DRAW_KEY, replicate_index), so results are identical regardless
of execution order or worker count.

One pass serves an analysis. On each side of the cutoff it fits the
outcome's mean, the density, and every covariate's mean on the outcome's
mean window. A resample is a vector of multinomial(n, 1/n) counts over the
rows (Efron 1979), and every local polynomial fit is a weighted moment sum,
so replicates never re-fit rows. Only the m rows inside the union of the
four windows (a mean and a density window per side) enter a fit, so a
replicate draws only their counts: a window total k ~ Binomial(n, m/n),
then k uniform draws over the window rows taken in order of original row
index. That is the same law at O(m) cost, and the resample is a function
of the rows, not of their x order. Setup sorts only the rows within twice
the widest bandwidth of the cutoff. Each side's mean weights w*u^k are
written once and shared by every value column w*u^k*v on that side. The
outcome's columns (mean weights, outcome values, density weights) form one
moment block and the covariates' value columns a second; each block has
its own product with the counts, so the boundary draws are the same bits
whichever covariates are requested. Per replicate, the counts times the
blocks give the normal equations of every mean fit; the running count,
taken through the last row of each tie group, times the counts and the CDF
weights gives those of the CDF fits behind the densities (Cattaneo,
Jansson & Ma 2020). The resample rows below the window only add a constant
to that running count, which moves the fitted intercept and not the slope,
so they need no count. Each product is taken one replicate at a time, so
its bits do not depend on the chunk. One batched solve per side yields the
levels, another the CDF slopes, which over h are the densities, floored at
DENSITY_FLOOR.

A fit fails on a replicate (NaN cell, the other fits keep their values)
exactly where the per-row fit would raise InsufficientData or
SingularDesign: when its window holds fewer distinct positive-weight values
with positive count than the fit has coefficients. The means on a side share
a window, so one support check decides them all. Chunks are fixed by
replicate index and sized from the window under a fixed byte budget;
workers only share out whole chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import FitConfig
from .errors import InvalidConfig, TooManyFailedReplicates
from .localfit import (
    DENSITY_FLOOR,
    FitSpec,
    Side,
    density_window,
    fit_from_moments,
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
#: Bytes of window counts per chunk of replicates; sets the chunk length.
CHUNK_BYTES = 1 << 21

#: The middle term of every draw key (seed, DRAW_KEY, replicate). It is 3,
#: the bounds bootstrap's key from when each test drew its own stream, so
#: the bounds keep their draws.
DRAW_KEY = 3


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
        if not (0.0 < self.alpha <= MAX_ALPHA):
            raise InvalidConfig(f"alpha must lie in (0, {MAX_ALPHA}], got {self.alpha}")
        if self.workers < 1:
            raise InvalidConfig("workers must be at least 1")


@dataclass(frozen=True)
class _SidePlan:
    rows: slice  # the side's window rows, as columns of the counts
    mean_groups: tuple[int, int]  # tie groups holding the mean window's positive-weight rows
    density_groups: tuple[int, int]  # tie groups holding the CDF window's positive-weight rows
    density_scale: float  # 1 / (n h) of the density's CDF fit


@dataclass(frozen=True)
class _Plan:
    n: int
    degree: int  # of the mean fits; the CDF fits are one degree above
    by_index: np.ndarray  # x position of each window row, the rows taken by original index
    # (m, 5d + 5): on each side's rows, that side's mean weights w*u^k
    # (k = 0..2d), outcome columns w*u^k*y (k = 0..d) and CDF weights w*u^k
    # (k = 0..2d + 2)
    moments: np.ndarray
    covariates: np.ndarray  # (m, c (d + 1)): w*u^k*v (k = 0..d) of each covariate v
    group_starts: np.ndarray | None  # first row of each tie group; None without ties
    group_end: np.ndarray | None  # last row of each row's tie group; None without ties
    sides: tuple[_SidePlan, _SidePlan]  # right, left
    chunk: int


def _window(xs_sorted, cutoff, spec: FitSpec, cdf: bool) -> tuple[int, int]:
    """Sorted-row range of the rows with positive weight in the mean fit on
    ``spec``, or with ``cdf`` in the CDF fit behind its density.

    Membership uses the per-row fits' own tests, so the engine and those
    fits agree on every edge point; the windows are intervals of sorted x.
    """
    h = spec.bandwidth
    lo = int(np.searchsorted(xs_sorted, cutoff - 2.0 * h, side="left"))
    hi = int(np.searchsorted(xs_sorted, cutoff + 2.0 * h, side="right"))
    seg = xs_sorted[lo:hi]
    if cdf:
        rows = density_window(seg, cutoff, spec) & (kernel_weight((seg - cutoff) / h, spec.kernel) > 0)
    else:
        rows = local_weights(seg, cutoff, spec)[2]
    rows = np.flatnonzero(rows)
    return (lo + int(rows[0]), lo + int(rows[-1]) + 1) if rows.size else (lo, lo)


def _plan(xs: np.ndarray, cutoff: float, fit: FitConfig, values) -> _Plan:
    """Windows, tie groups and moment columns shared by every replicate."""
    n, d = xs.size, fit.order
    sides = (Side.RIGHT, Side.LEFT)
    specs = [(fit.mean_spec(side), fit.density_spec(side)) for side in sides]
    # every window lies within twice its bandwidth of the cutoff; the stable
    # sort of those rows keeps tied rows in original-index order
    reach = 2.0 * max(spec.bandwidth for pair in specs for spec in pair)
    order = np.flatnonzero((xs >= cutoff - reach) & (xs <= cutoff + reach))
    order = order[np.argsort(xs[order], kind="stable")]
    xs_sorted = xs[order]
    windows = [
        (_window(xs_sorted, cutoff, mean, cdf=False), _window(xs_sorted, cutoff, dens, cdf=True))
        for mean, dens in specs
    ]
    spans = [(lo, hi) for pair in windows for lo, hi in pair if hi > lo]
    if spans:
        a, b = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    else:
        a = b = int(np.searchsorted(xs_sorted, cutoff))
    m = b - a
    window = xs_sorted[a:b]
    split = int(np.searchsorted(window, cutoff, side="left"))

    new_group = np.ones(m, dtype=bool)
    new_group[1:] = window[1:] != window[:-1]
    group_id = np.cumsum(new_group) - 1
    if new_group.all():
        group_starts = group_end = None
    else:
        group_starts = np.flatnonzero(new_group)
        group_end = np.append(group_starts[1:], m)[group_id] - 1

    def groups(lo, hi):
        return (int(group_id[lo]), int(group_id[hi - 1]) + 1) if hi > lo else (0, 0)

    ys, *covariates = (np.asarray(v, dtype=float) for v in values)
    moments = np.zeros((m, 5 * d + 5))
    cov_moments = np.zeros((m, len(covariates) * (d + 1)))
    plans = []
    for side, (mean, dens), ((lo, hi), (c_lo, c_hi)) in zip(sides, specs, windows):
        lo, hi, c_lo, c_hi = lo - a, hi - a, c_lo - a, c_hi - a
        u = (window[lo:hi] - cutoff) / mean.bandwidth
        w = kernel_weight(u, mean.kernel)
        weighted_powers(u, w, 2 * d, moments[lo:hi, : 2 * d + 1])
        index = order[a + lo : a + hi]
        weighted_powers(u, w * ys[index], d, moments[lo:hi, 2 * d + 1 : 3 * d + 2])
        for j, v in enumerate(covariates):
            weighted_powers(u, w * v[index], d, cov_moments[lo:hi, j * (d + 1) : (j + 1) * (d + 1)])
        u = (window[c_lo:c_hi] - cutoff) / dens.bandwidth
        weighted_powers(u, kernel_weight(u, dens.kernel), 2 * d + 2, moments[c_lo:c_hi, 3 * d + 2 :])
        rows = slice(split, m) if side is Side.RIGHT else slice(0, split)
        plans.append(_SidePlan(rows, groups(lo, hi), groups(c_lo, c_hi), 1.0 / (n * dens.bandwidth)))
    chunk = max(1, CHUNK_BYTES // (8 * max(m, 1)))
    by_index = np.argsort(order[a:b])
    return _Plan(n, d, by_index, moments, cov_moments, group_starts, group_end, tuple(plans), chunk)


def _supported(present: np.ndarray, groups: tuple[int, int], degree: int) -> np.ndarray:
    """Replicates that drew more distinct values of a window than ``degree``:
    at least as many as a fit of that degree has coefficients."""
    g_lo, g_hi = groups
    return np.count_nonzero(present[:, g_lo:g_hi], axis=1) > degree


def _draw_counts(plan: _Plan, reps: range, seed: int) -> np.ndarray:
    """Each replicate's resample counts of the window rows, in x order."""
    n, m = plan.n, plan.by_index.size
    counts = np.empty((len(reps), m))
    for j, rep in enumerate(reps):
        g = replicate_rng(seed, rep)
        draws = g.integers(0, m, g.binomial(n, m / n))
        counts[j] = np.bincount(plan.by_index[draws], minlength=m)
    return counts


def _run_chunk(plan: _Plan, reps: range, seed: int) -> np.ndarray:
    """Fitted values of one chunk of replicates, a NaN cell where a fit failed."""
    d = plan.degree
    r, c = len(reps), plan.covariates.shape[1] // (d + 1)
    counts = _draw_counts(plan, reps, seed)
    # which distinct x values each resample holds, for the support checks
    present = counts if plan.group_starts is None else np.add.reduceat(counts, plan.group_starts, axis=1)
    present = present > 0
    # resample rows in the window at or below each row's value: the CDF up
    # to a constant and the factor n, both folded into the slope's scale
    running = np.cumsum(counts, axis=1)
    # take, not fancy indexing: C order keeps each replicate's product on one path
    cdf = running if plan.group_end is None else np.take(running, plan.group_end, axis=1)
    cdf *= counts
    out = np.full((r, 4 + 2 * c), np.nan)
    for i, side in enumerate(plan.sides):
        rows = side.rows
        # one product per replicate, so its sums do not depend on the chunk
        side_counts = counts[:, None, rows]
        sums = (side_counts @ plan.moments[rows])[:, 0]
        cdf_sums = (cdf[:, None, rows] @ plan.moments[rows, 3 * d + 2 : 4 * d + 4])[:, 0]
        ok = _supported(present, side.density_groups, d + 1)
        beta = fit_from_moments(sums[ok, 3 * d + 2 :], cdf_sums[ok])
        out[ok, 2 + i] = np.maximum(beta[:, 1] * side.density_scale, DENSITY_FLOOR)
        # the outcome's and every covariate's value sums share the side's mean weights
        cov_sums = (side_counts @ plan.covariates[rows])[:, 0].reshape(r, c, d + 1)
        value_sums = np.concatenate([sums[:, None, 2 * d + 1 : 3 * d + 2], cov_sums], axis=1)
        ok = _supported(present, side.mean_groups, d)
        levels = fit_from_moments(sums[ok, None, : 2 * d + 1], value_sums[ok])[..., 0]
        out[ok, i] = levels[:, 0]
        out[ok, 4 + i :: 2] = levels[:, 1:]
    return out


def run_replicates(xs, cutoff, fit, values, b, seed, workers=1):
    """Evaluate the boundary fits on ``b`` row resamples of the sample.

    Parameters
    ----------
    xs : running variable of the full sample (finite)
    fit : FitConfig with resolved bandwidths
    values : the outcome, then each covariate; columns as long as ``xs``

    Returns
    -------
    A (b, 2 + 2 * len(values)) array with the columns (mu_plus, mu_minus,
    f_plus, f_minus), then the right and left means of each covariate, NaN
    where a fit failed on a replicate.
    """
    xs = np.asarray(xs, dtype=float)
    plan = _plan(xs, cutoff, fit, values)
    out = np.empty((b, 2 + 2 * len(values)))

    def one(start):
        stop = min(start + plan.chunk, b)
        out[start:stop] = _run_chunk(plan, range(start, stop), seed)

    starts = range(0, b, plan.chunk)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, starts))
    else:
        for start in starts:
            one(start)
    return out


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
