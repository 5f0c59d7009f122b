"""Replicate-keyed nonparametric bootstrap of one-sided local fits at a cutoff.

Every replicate draws its row resample from a generator seeded by
(seed, DRAW_KEY, replicate_index), so results are identical regardless
of execution order or worker count.

A resample is a vector of multinomial counts over the rows (Efron 1979), and
every local polynomial fit is a weighted moment sum, so replicates never
re-fit rows. Setup sorts x once and keeps the rows inside the union of the
fit windows, in x order. Each replicate's draws become per-row counts with
``bincount``, of which only the window rows are kept. For a chunk of
replicates, the counts times the precomputed columns w*u^k and w*u^k*v give
the normal equations of every mean fit; the counts times the running count,
taken through the last row of each tie group, give those of the CDF fits
behind the densities (Cattaneo, Jansson & Ma 2020). The resample rows below
the window only add a constant to that running count, which moves the fitted
intercept and not the slope, so they need no count. One batched solve per
fit yields the levels, and the CDF slopes over h the densities, floored at
DENSITY_FLOOR.

A fit fails on a replicate (NaN cell, the other fits keep their values)
exactly where the per-row fit would raise InsufficientData or
SingularDesign: when its window holds fewer distinct positive-weight values
with positive count than the fit has coefficients. Chunks are fixed by
replicate index and sized from the window under a fixed byte budget;
workers only share out whole chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
        if not (0.0 < self.alpha < 1.0):
            raise InvalidConfig(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise InvalidConfig("workers must be at least 1")


@dataclass(frozen=True)
class MeanFit:
    """One-sided local polynomial level of ``values`` at the cutoff."""

    spec: FitSpec
    values: np.ndarray


@dataclass(frozen=True)
class DensityFit:
    """One-sided density at the cutoff: CDF fit of degree ``spec.order + 1``."""

    spec: FitSpec


@dataclass(frozen=True)
class _FitPlan:
    right: bool  # rows and moment columns of the right-hand side
    col: int  # first moment column
    degree: int  # polynomial degree of the fit
    groups: tuple[int, int]  # tie groups holding the fit's positive-weight rows
    density_scale: float | None  # 1 / (n h) for densities, None for means


@dataclass(frozen=True)
class _Plan:
    n: int
    rows: np.ndarray  # original index of each window row, in x order
    split: int  # window rows [0, split) lie left of the cutoff
    moments: np.ndarray  # (m, K); left rows hold left-fit columns, right rows right-fit ones
    group_starts: np.ndarray | None  # first row of each tie group; None without ties
    group_end: np.ndarray | None  # last row of each row's tie group; None without ties
    fits: tuple[_FitPlan, ...]
    chunk: int


def _fit_rows(xs_sorted, cutoff, fit) -> tuple[int, int]:
    """Sorted-row range of the rows that carry positive weight in a fit.

    Membership uses the per-row fits' own tests, so the engine and those
    fits agree on every edge point; the windows are intervals of sorted x.
    """
    spec = fit.spec
    h = spec.bandwidth
    lo = int(np.searchsorted(xs_sorted, cutoff - 2.0 * h, side="left"))
    hi = int(np.searchsorted(xs_sorted, cutoff + 2.0 * h, side="right"))
    seg = xs_sorted[lo:hi]
    if isinstance(fit, DensityFit):
        rows = density_window(seg, cutoff, spec) & (kernel_weight((seg - cutoff) / h, spec.kernel) > 0)
    else:
        rows = local_weights(seg, cutoff, spec)[2]
    rows = np.flatnonzero(rows)
    return (lo + int(rows[0]), lo + int(rows[-1]) + 1) if rows.size else (lo, lo)


def _degree(fit) -> int:
    """Polynomial degree: the CDF fit behind a density is one above its order."""
    return fit.spec.order + 1 if isinstance(fit, DensityFit) else fit.spec.order


def _n_columns(fit) -> int:
    """w*u^k for k = 0..2d, plus w*u^k*v for k = 0..d for a mean."""
    d = _degree(fit)
    return 2 * d + 1 if isinstance(fit, DensityFit) else 3 * d + 2


def _plan(xs: np.ndarray, cutoff: float, fits) -> _Plan:
    """Window rows, tie groups and moment columns shared by every replicate."""
    for fit in fits:
        if fit.spec.side is Side.INTERIOR:
            raise InvalidConfig("the bootstrap engine fits one side of the cutoff at a time")
    n = xs.size
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    ranges = [_fit_rows(xs_sorted, cutoff, fit) for fit in fits]
    spans = [(lo, hi) for lo, hi in ranges if hi > lo]
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

    width = {False: 0, True: 0}
    cols = []
    for fit in fits:
        right = fit.spec.side is Side.RIGHT
        cols.append(width[right])
        width[right] += _n_columns(fit)
    moments = np.zeros((m, max(width.values())))
    plans = []
    for fit, col, (lo, hi) in zip(fits, cols, ranges):
        spec = fit.spec
        right = spec.side is Side.RIGHT
        lo, hi = lo - a, hi - a
        u = (window[lo:hi] - cutoff) / spec.bandwidth
        w = kernel_weight(u, spec.kernel)
        d = _degree(fit)
        weighted_powers(u, w, 2 * d, moments[lo:hi, col : col + 2 * d + 1])
        if isinstance(fit, DensityFit):
            scale = 1.0 / (n * spec.bandwidth)
        else:
            v = np.asarray(fit.values, dtype=float)[order[a + lo : a + hi]]
            weighted_powers(u, w * v, d, moments[lo:hi, col + 2 * d + 1 : col + 3 * d + 2])
            scale = None
        groups = (int(group_id[lo]), int(group_id[hi - 1]) + 1) if hi > lo else (0, 0)
        plans.append(_FitPlan(right, col, d, groups, scale))
    chunk = max(1, CHUNK_BYTES // (8 * max(m, 1)))
    return _Plan(n, order[a:b].copy(), split, moments, group_starts, group_end, tuple(plans), chunk)


def _run_chunk(plan: _Plan, reps: range, seed: int) -> np.ndarray:
    """Fitted values of one chunk of replicates, a NaN cell where a fit failed."""
    n, m, s = plan.n, plan.moments.shape[0], plan.split
    counts = np.empty((len(reps), m))
    for j, rep in enumerate(reps):
        indices = replicate_rng(seed, rep).integers(0, n, n)
        counts[j] = np.bincount(indices, minlength=n)[plan.rows]
    # which distinct x values each resample holds, for the failure checks
    present = counts if plan.group_starts is None else np.add.reduceat(counts, plan.group_starts, axis=1)
    present = present > 0
    moments = plan.moments
    sums = (counts[:, :s] @ moments[:s], counts[:, s:] @ moments[s:])
    # resample rows in the window at or below each row's value: the CDF up
    # to a constant and the factor n, both folded into the slope's scale
    running = np.cumsum(counts, axis=1)
    cdf = running if plan.group_end is None else running[:, plan.group_end]
    cdf *= counts
    cdf_sums = (cdf[:, :s] @ moments[:s], cdf[:, s:] @ moments[s:])
    out = np.full((len(reps), len(plan.fits)), np.nan)
    for i, fp in enumerate(plan.fits):
        d, col = fp.degree, fp.col
        g_lo, g_hi = fp.groups
        ok = np.count_nonzero(present[:, g_lo:g_hi], axis=1) > d
        if not ok.any():
            continue
        weight_sums = sums[fp.right][ok, col : col + 2 * d + 1]
        if fp.density_scale is None:
            beta = fit_from_moments(weight_sums, sums[fp.right][ok, col + 2 * d + 1 : col + 3 * d + 2])
            out[ok, i] = beta[:, 0]
        else:
            beta = fit_from_moments(weight_sums, cdf_sums[fp.right][ok, col : col + d + 1])
            out[ok, i] = np.maximum(beta[:, 1] * fp.density_scale, DENSITY_FLOOR)
    return out


def run_replicates(xs, cutoff, fits, b, seed, workers=1):
    """Evaluate one-sided ``fits`` on ``b`` row resamples of the sample.

    Parameters
    ----------
    xs : running variable of the full sample (finite)
    fits : sequence of MeanFit / DensityFit, each on the LEFT or RIGHT side

    Returns
    -------
    A (b, len(fits)) array, one column per fit, with NaN where a fit failed
    on a replicate.
    """
    xs = np.asarray(xs, dtype=float)
    plan = _plan(xs, cutoff, tuple(fits))
    out = np.empty((b, len(plan.fits)))

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
