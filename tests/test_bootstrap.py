"""The count-based bootstrap engine against per-row fits on every resample.

The reference loop rebuilds each replicate's resample from the same keyed
draws: k ~ Binomial(n, m/n) uniform draws over the m window rows (those
between the lowest and highest x with positive weight in one of the four
boundary fits), taken in order of original row index, plus n - k rows
drawn uniformly from outside the window with a generator of its own. Each
per-row fit (the least-squares ``oracles.lstsq_level`` for the means,
``boundary_density`` for the densities) is applied to ``xs[idx]`` on its
own, so a fit that raises blanks only its own cell, with the discreteness
heuristic off as resamples duplicate values by construction. A law test
checks the window draw against the full multinomial(n, 1/n) resample it
replaces.
"""

import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from mrdd import (
    Bandwidths,
    BootstrapConfig,
    Dataset,
    FitConfig,
    KernelKind,
    SideCounts,
    TypeAssumption,
    bootstrap_boundary_replicates,
    bounds_from_draws,
    estimate_boundary,
)
from mrdd import boundary, localfit
from mrdd.boundary import build_plan, replicate_rng, run_replicates
from mrdd.errors import DataError, TooManyFailedReplicates
from mrdd.inference import _balance_test, _density_test, drop_failed, protocol_from_draws
from mrdd.localfit import Side, boundary_density, density_window, kernel_weight, local_weights
from oracles import lstsq_level

B = 64
SEED = 17
H = 0.5  # binary-exact, so the edge points below sit exactly on c +- h


@pytest.fixture(autouse=True)
def no_discreteness_check(monkeypatch):
    monkeypatch.setattr(localfit, "DUPLICATE_FRACTION_LIMIT", 1.0)


def tied_sample(seed=4, n=3000):
    """Continuous draws plus exact ties, with points on the cutoff and window edges."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 0.6, n)
    edges = np.repeat([-H, 0.0, H, -2 * H, 2 * H], 3)
    xs = np.concatenate([xs, xs[: n // 20], edges])
    ys = (rng.uniform(size=xs.size) < 0.4 + 0.2 * (xs >= 0)).astype(float)
    ws = 0.5 * xs + rng.normal(size=xs.size)
    return Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0, covariates={"w": ws})


def per_row_fits(data, fit, covariates=()):
    """The per-row fits of one pass, in its column order: the outcome's right
    and left means, the right and left densities, then each covariate's means."""
    xs, c = data.xs, data.cutoff
    mean_r, mean_l = fit.mean_spec(Side.RIGHT), fit.mean_spec(Side.LEFT)

    def mean(values, spec):
        return lambda idx: lstsq_level(xs[idx], values[idx], c, spec)

    def density(side):
        return lambda idx: boundary_density(xs[idx], c, fit.density_spec(side))[0]

    stats = [mean(data.ys, mean_r), mean(data.ys, mean_l), density(Side.RIGHT), density(Side.LEFT)]
    for name in covariates:
        stats += [mean(data.covariates[name], mean_r), mean(data.covariates[name], mean_l)]
    return stats


def window_rows(data, fit):
    """Rows, by original index, between the lowest and highest x with positive
    weight in one of the four boundary fits: the rows a replicate draws."""
    xs, c = data.xs, data.cutoff
    used = np.zeros(xs.size, dtype=bool)
    for side in (Side.RIGHT, Side.LEFT):
        used |= local_weights(xs, c, fit.mean_spec(side))[2]
        spec = fit.density_spec(side)
        used |= density_window(xs, c, spec) & (kernel_weight((xs - c) / spec.bandwidth, spec.kernel) > 0)
    if not used.any():
        return np.zeros(0, dtype=int)
    return np.flatnonzero((xs >= xs[used].min()) & (xs <= xs[used].max()))


def reference(data, fit, stats, b=B):
    """Per-replicate loop over the keyed window draws: a column per fit, NaN where that fit raises."""
    n = data.n
    window = window_rows(data, fit)
    outside = np.setdiff1d(np.arange(n), window)
    fill = np.random.default_rng(0)  # rows outside every window change no fit
    cells = np.full((b, len(stats)), np.nan)
    for rep in range(b):
        g = replicate_rng(SEED, rep)
        picks = window[g.integers(0, window.size, g.binomial(n, window.size / n))]
        idx = np.concatenate([picks, fill.choice(outside, n - picks.size)])
        for j, stat in enumerate(stats):
            try:
                cells[rep, j] = stat(idx)
            except DataError:
                pass
    return cells


def ok_rows(values):
    return values[~np.isnan(values).any(axis=1)]


def assert_same(values, ref):
    assert values.shape == ref.shape
    np.testing.assert_array_equal(np.isnan(values), np.isnan(ref))
    np.testing.assert_allclose(values, ref, rtol=0.0, atol=1e-9)


def jump_statistic(point, columns):
    """Full-sample jump over the SD of the replicate jumps where both fits succeeded."""
    ok = ok_rows(columns)
    return point / np.std(ok[:, 0] - ok[:, 1], ddof=1)


def config(order, kernel, wide=Side.RIGHT):
    # the ``wide`` side's mean bandwidth is 2H, the other three H, so the plan
    # reaches 4H on that side and 2H on the other, where tied edge points lie
    mean_left, mean_right = (H, 2 * H) if wide is Side.RIGHT else (2 * H, H)
    bw = Bandwidths(mean_left=mean_left, mean_right=mean_right, dens_left=H, dens_right=H)
    return FitConfig(order=order, kernel=kernel, bandwidths=bw)


@pytest.mark.parametrize("wide", [Side.RIGHT, Side.LEFT], ids=["wide-right", "wide-left"])
@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("order", [0, 1, 2])
def test_engine_matches_per_row_fits(order, kernel, wide):
    data = tied_sample()
    fit = config(order, kernel, wide)
    boot = BootstrapConfig(b=B, seed=SEED)
    whole = np.arange(data.n)

    draws = bootstrap_boundary_replicates(data, boot, fit, ("w",))
    stats = per_row_fits(data, fit, ("w",))
    ref = reference(data, fit, stats)
    assert_same(draws.draws, ref)
    fits, n_failed = drop_failed(draws.draws[:, :4], "boundary")
    assert n_failed == B - ok_rows(ref[:, :4]).shape[0]
    assert_same(fits, ok_rows(ref[:, :4]))

    res = _density_test(draws)
    point = stats[2](whole) - stats[3](whole)
    assert res.statistic == pytest.approx(jump_statistic(point, ref[:, 2:4]), rel=1e-9)
    assert res.replications == ok_rows(ref[:, 2:4]).shape[0]

    res = _balance_test(draws, 0)
    point = stats[4](whole) - stats[5](whole)
    assert res.statistic == pytest.approx(jump_statistic(point, ref[:, 4:6]), rel=1e-9)
    assert res.replications == ok_rows(ref[:, 4:6]).shape[0]


#: A cutoff and bandwidth where x within ulps below fl(c - h) has
#: u = fl(fl(x - c) / h) = -1, so the uniform kernel keeps it
EDGE_CUTOFF, EDGE_H = 0.1, 0.1262606747513652


def rounding_edge_sample(seed=8, n=600):
    """Continuous draws plus 13 rows at -6..6 ulps of fl(c - h)."""
    rng = np.random.default_rng(seed)
    edge = EDGE_CUTOFF - EDGE_H
    xs = np.concatenate([rng.normal(EDGE_CUTOFF, 0.15, n), edge + np.arange(-6, 7) * np.spacing(edge)])
    ys = (rng.uniform(size=xs.size) < 0.4 + 0.2 * (xs >= EDGE_CUTOFF)).astype(float)
    ys[n:] = 1.0
    ws = xs + rng.normal(size=xs.size)
    return Dataset(xs=xs, ys=ys, cutoff=EDGE_CUTOFF, y_low=0.0, y_high=1.0, covariates={"w": ws})


@pytest.mark.parametrize("order", [0, 1, 2])
def test_engine_keeps_window_rows_below_the_float_edge(order):
    # four edge rows lie below fl(c - h) but in the uniform kernel's left mean
    # window; a plan that reached only x >= fl(c - h) would drop them from
    # the window and its fits, so the per-row fits hold the plan's reach
    data = rounding_edge_sample()
    fit = FitConfig(order=order, kernel=KernelKind.UNIFORM, bandwidths=Bandwidths(
        mean_left=EDGE_H, mean_right=EDGE_H, dens_left=EDGE_H, dens_right=EDGE_H))
    kept = local_weights(data.xs, EDGE_CUTOFF, fit.mean_spec(Side.LEFT))[2]
    assert np.count_nonzero(kept & (data.xs < EDGE_CUTOFF - EDGE_H)) == 4

    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=B, seed=SEED), fit, ("w",))
    stats = per_row_fits(data, fit, ("w",))
    assert draws.point.n_effective.mean_left == np.count_nonzero(kept)
    assert draws.point.mu_minus == pytest.approx(stats[1](np.arange(data.n)), rel=1e-12)
    assert_same(draws.draws, reference(data, fit, stats))


def continuous_sample(seed=6, n=3000):
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 0.6, n)
    ys = (rng.uniform(size=n) < 0.4 + 0.2 * (xs >= 0)).astype(float)
    return Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0, covariates={"w": xs + rng.normal(size=n)})


@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("sample", [tied_sample, continuous_sample])
def test_sample_is_replicate_zero(sample, order, kernel):
    data = sample()
    fit = config(order, kernel)
    plan = build_plan(data, fit, ("w",))
    row = boundary.evaluate(plan, np.ones((1, plan.index.size)))[0]
    be = estimate_boundary(data, fit)
    assert (be.mu_plus, be.mu_minus, be.f_plus, be.f_minus) == tuple(row[:4])
    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=B, seed=SEED), fit, ("w",))
    assert draws.point == be
    assert draws.covariates == (("w", row[4] - row[5]),)
    # against the per-row fits: least squares for the means, the block-sum CDF fit for the densities
    stats = per_row_fits(data, fit, ("w",))
    np.testing.assert_allclose(row, [stat(np.arange(data.n)) for stat in stats], rtol=1e-12, atol=1e-14)
    # the sample's windows and their rows, as every per-row fit counts them
    xs = data.xs
    means = [local_weights(xs, 0.0, fit.mean_spec(side))[2].sum() for side in (Side.LEFT, Side.RIGHT)]
    dens = [density_window(xs, 0.0, fit.density_spec(side)).sum() for side in (Side.LEFT, Side.RIGHT)]
    assert be.n_effective == SideCounts(*means, *dens)


@pytest.mark.parametrize(
    "blocks, tail",
    [(0, 0), (0, 1), (0, 255), (9, 7), (40, 0), (240, 186), (31, 5), (32, 9), (33, 200)],
)
def test_moment_sums_are_per_replicate_and_accurate(blocks, tail):
    # (240, 186) is the right side's window on the benchmark's n=200k sample.
    # The rows start at an odd offset, as one side's rows do. Each sum has
    # the bits of its replicate alone and of its moment row alone, so the
    # other replicates of a chunk and the other rows of a side's matrix
    # (the covariates' among them) cannot change how it rounds
    rng = np.random.default_rng(blocks + tail)
    width = blocks * boundary.SUM_BLOCK + tail
    counts = rng.integers(0, 4, size=(5, width + 3)).astype(float)[:, 3:]
    moments = rng.uniform(size=(4, width)) * rng.uniform(size=width) ** np.arange(4)[:, None]
    sums = boundary._moment_sums(counts, moments)
    for k in range(moments.shape[0]):
        assert np.array_equal(sums[:, k : k + 1], boundary._moment_sums(counts, moments[k : k + 1]))
    for j, row in enumerate(counts):
        assert np.array_equal(sums[j], boundary._moment_sums(row[None].copy(), moments)[0])
        for k, weights in enumerate(moments):
            terms = row * weights
            # within a few roundings of the exact sum; one running total over
            # 60k rows is off by about 6e-15 of it
            assert abs(sums[j, k] - math.fsum(terms)) <= 1e-15 * math.fsum(terms)


@pytest.mark.parametrize("sample", [tied_sample, continuous_sample])
def test_plan_index_holds_only_the_window_rows(sample):
    # the plan sorts the rows within twice each side's widest bandwidth of
    # the cutoff, 2H below and 4H above; it keeps no view of that array
    data = sample()
    plan = build_plan(data, config(1, KernelKind.TRIANGULAR))
    assert plan.index.base is None
    assert plan.index.size < np.count_nonzero((data.xs >= -2 * H) & (data.xs <= 4 * H))


@pytest.mark.parametrize("sample", [tied_sample, continuous_sample])
def test_draw_counts_are_the_bincount_of_the_keyed_draws(sample):
    # the reference counts each draw at its row's x position; replicates
    # from 7 on, so the keys do not start at 0
    data = sample()
    plan = build_plan(data, config(1, KernelKind.TRIANGULAR))
    n, m, reps = data.n, plan.index.size, range(7, 20)
    by_index = np.argsort(plan.index)  # x position of each window row, the rows taken by original index
    ref = np.empty((len(reps), m))
    for j, rep in enumerate(reps):
        g = replicate_rng(SEED, rep)
        ref[j] = np.bincount(by_index[g.integers(0, m, g.binomial(n, m / n))], minlength=m)
    counts = boundary._draw_counts(plan, reps, SEED)
    assert counts.dtype == ref.dtype and np.array_equal(counts, ref)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_chunks_and_workers_do_not_change_draws(monkeypatch, order):
    data = tied_sample()
    fit = config(order, KernelKind.TRIANGULAR)
    whole = run_replicates(build_plan(data, fit, ("w",)), 200, SEED)
    monkeypatch.setattr(boundary, "CHUNK_BYTES", 1 << 16)  # a few replicates per chunk
    plan = build_plan(data, fit, ("w",))
    one = run_replicates(plan, 200, SEED, workers=1)
    three = run_replicates(plan, 200, SEED, workers=3)
    monkeypatch.setattr(boundary, "CHUNK_BYTES", 8)  # one replicate per chunk
    single = run_replicates(build_plan(data, fit, ("w",)), 200, SEED)
    assert one.shape == (200, 6)
    assert np.array_equal(one, three)
    assert np.array_equal(one, whole)
    assert np.array_equal(one, single)


def test_worker_pool_is_bounded_by_chunks_and_cores(monkeypatch):
    # the recording executor maps serially, so no thread starts here
    sizes = []

    class Serial:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_replicates imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Serial)
    data = tied_sample()
    plan = build_plan(data, config(1, KernelKind.TRIANGULAR))
    serial = run_replicates(plan, 60, SEED)
    runs = [
        (replace(plan, chunk=30), 100_000, 4),  # two chunks
        (replace(plan, chunk=1), 100_000, 4),  # four cores
        (replace(plan, chunk=1), 3, 4),
        (replace(plan, chunk=1), 100_000, 1),  # one usable CPU runs serially
    ]
    for chunked, workers, cores in runs:
        monkeypatch.setattr(boundary, "usable_cpus", lambda: cores)
        assert np.array_equal(run_replicates(chunked, 60, SEED, workers=workers), serial)
    # the pool sizes asked for; a serial run asks for no pool
    assert sizes == [2, 4, 3]


def test_usable_cpus_follow_affinity_then_the_host(monkeypatch):
    # the threaded path of the worker tests needs at least two of these
    monkeypatch.setattr(boundary.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(boundary.os, "cpu_count", lambda: 64)
    assert boundary.usable_cpus() == 2
    monkeypatch.delattr(boundary.os, "sched_getaffinity")
    assert boundary.usable_cpus() == 64
    monkeypatch.setattr(boundary.os, "cpu_count", lambda: None)
    assert boundary.usable_cpus() == 1


#: Split density bandwidths, so each side stores its CDF weights apart (cdf_row > 0)
SPLIT_FIT = Bandwidths(mean_left=0.4, mean_right=0.5, dens_left=0.3, dens_right=0.35)


@pytest.mark.parametrize("layout", ["shared", "split"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_boundary_draws_do_not_depend_on_covariates(order, layout):
    # the covariates' value rows sit in the side's moment matrix after the
    # outcome's, and ``_moment_sums`` sums each row on its own, so they
    # cannot change how the outcome's or the CDF's sums round. "shared" is
    # the default spec on under SUM_BLOCK window rows a side, the partial
    # block alone; "split" sums full blocks of x on a 0.01 grid, with ties,
    # and keeps the CDF weight rows apart
    rng = np.random.default_rng(0)
    if layout == "shared":
        xs, fit = rng.normal(0.0, 0.6, 1000), FitConfig(order=order)
    else:
        xs, fit = np.round(rng.normal(0.0, 0.6, 6000), 2), FitConfig(order=order, bandwidths=SPLIT_FIT)
    ys = (rng.uniform(size=xs.size) < 0.4 + 0.2 * (xs >= 0)).astype(float)
    covs = {f"w{j}": 0.5 * xs + rng.normal(size=xs.size) for j in range(1, 5)}
    data = Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0, covariates=covs)
    plan = build_plan(data, fit)
    widths = [side.moments.shape[1] for side in plan.sides]
    if layout == "split":
        assert min(widths) > boundary.SUM_BLOCK and plan.group_end is not None
        assert all(side.cdf_row > 0 for side in plan.sides)
    else:
        assert max(widths) < boundary.SUM_BLOCK
    boot = BootstrapConfig(b=B, seed=SEED)
    alone = bootstrap_boundary_replicates(data, boot, fit).draws
    draws = bootstrap_boundary_replicates(data, boot, fit, tuple(covs)).draws
    assert draws.shape == (B, 12)
    assert np.array_equal(draws[:, :4], alone, equal_nan=True)


def sparse_left_sample(n_left, seed=2):
    """Many points right of the cutoff and only ``n_left`` to its left.

    One more left point sits on the left windows' edge, where the triangular
    kernel gives it zero weight: it must not count towards a fit's support.
    """
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-1.0, 0.0, n_left), [-2.0], rng.uniform(0.0, 1.0, 2000)])
    ys = rng.uniform(size=xs.size)
    return Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0)


# the whole left side in every left window, so a replicate fails exactly
# when it draws fewer than three distinct left points (order-1 density fit)
SPARSE_FIT = FitConfig(bandwidths=Bandwidths(mean_left=2.0, mean_right=0.5, dens_left=2.0, dens_right=0.5))


def sparse_reference(data, b):
    return reference(data, SPARSE_FIT, per_row_fits(data, SPARSE_FIT), b)


def test_few_failures_are_dropped():
    data = sparse_left_sample(8)
    b = 200
    ref = sparse_reference(data, b)
    n_failed = b - ok_rows(ref).shape[0]
    assert 0 < n_failed <= 0.1 * b
    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=b, seed=SEED), SPARSE_FIT)
    assert_same(draws.draws, ref)
    bounds, _ = bounds_from_draws(draws, TypeAssumption.TYPE2, 0.0, 1.0)
    assert bounds.n_failed == n_failed
    assert bounds.replicates.shape == (b - n_failed, 2)


def failed_boundary_fits(xs, cutoff, fit, counts):
    """Where a replicate's counts of the window rows, in x order, leave one of
    the four boundary fits fewer distinct positive-weight u values than
    coefficients. The windows come from the per-row fits' own row tests on
    the sorted sample, not from the plan."""
    xs = np.sort(xs)
    fits = []  # (column, the rows the fit weights, their u, the fit's coefficients)
    for i, side in enumerate((Side.RIGHT, Side.LEFT)):
        u, _, keep = local_weights(xs, cutoff, fit.mean_spec(side))
        fits.append((i, keep, u, fit.order + 1))
        spec = fit.density_spec(side)
        u = (xs - cutoff) / spec.bandwidth
        fits.append((2 + i, density_window(xs, cutoff, spec) & (kernel_weight(u, spec.kernel) > 0), u, fit.order + 2))
    used = np.flatnonzero(np.any([keep for _, keep, _, _ in fits], axis=0))
    window = slice(used[0], used[-1] + 1)
    assert counts.shape[1] == window.stop - window.start
    failed = np.zeros((counts.shape[0], 4), dtype=bool)
    for column, keep, u, coefficients in fits:
        keep, u = keep[window], u[window]
        # u rises with x, so tied u are neighbours: one count per distinct u
        starts = np.flatnonzero(np.diff(u[keep], prepend=-np.inf) != 0)
        drawn = np.add.reduceat(counts[:, keep], starts, axis=1) > 0
        failed[:, column] = np.count_nonzero(drawn, axis=1) < coefficients
    return failed


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("split", [False, True], ids=["shared", "split"])
@pytest.mark.parametrize("kernel", list(KernelKind), ids=lambda k: k.value)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_failed_fits_are_the_replicates_short_of_support(order, kernel, split, tied):
    # evaluate runs no support check: the rank test on each fit's normal
    # equations alone must fail exactly the replicates short of support.
    # The left side has as many points as its density fit has coefficients
    data = sparse_left_sample(order + 2)
    xs = data.xs
    if tied:  # every left point twice, so rows and distinct values differ
        xs = np.concatenate([xs, xs[xs < 0.0]])
    bw = SPARSE_FIT.bandwidths
    if split:  # the density windows narrower than the mean windows
        bw = replace(bw, dens_left=1.0, dens_right=0.25)
    fit = FitConfig(order=order, kernel=kernel, bandwidths=bw)
    plan = build_plan(Dataset(xs=xs, ys=np.resize(data.ys, xs.size), cutoff=0.0), fit)
    assert (plan.group_end is not None) == tied
    counts = boundary._draw_counts(plan, range(300), SEED)
    failed = failed_boundary_fits(xs, 0.0, fit, counts)
    assert 0 < failed.any(axis=1).sum() < 300 and failed[:, 3].sum() > failed[:, 1].sum()
    np.testing.assert_array_equal(np.isnan(boundary.evaluate(plan, counts)), failed)
    # one replicate at a time, with no other replicate in its solves
    alone = np.concatenate([boundary.evaluate(plan, row[None]) for row in counts])
    np.testing.assert_array_equal(np.isnan(alone), failed)


def test_a_chunk_solves_each_kind_of_fit_once(monkeypatch):
    # one fit_from_moments call takes both sides' density fits, and one both
    # sides' mean fits of the outcome and every covariate
    data = tied_sample()
    plan = build_plan(data, config(1, KernelKind.TRIANGULAR), ("w",))
    counts = boundary._draw_counts(plan, range(plan.chunk), SEED)
    expected = boundary.evaluate(plan, counts)
    calls = []
    solve = boundary.fit_from_moments
    monkeypatch.setattr(boundary, "fit_from_moments", lambda *sums: calls.append(sums) or solve(*sums))
    assert np.array_equal(boundary.evaluate(plan, counts), expected, equal_nan=True)
    assert [weights.shape[:2] for weights, _ in calls] == [(2, plan.chunk)] * 2


def test_a_chunk_sums_each_side_twice(monkeypatch):
    # per side, one sum of the counts over the whole moment matrix (the
    # weights and the outcome's and every covariate's value rows) and one
    # of the running counts over the CDF weights
    data = tied_sample()
    plan = build_plan(data, config(1, KernelKind.TRIANGULAR), ("w",))
    counts = boundary._draw_counts(plan, range(plan.chunk), SEED)
    expected = boundary.evaluate(plan, counts)
    calls = []
    moment_sums = boundary._moment_sums
    monkeypatch.setattr(boundary, "_moment_sums", lambda *args: calls.append(args) or moment_sums(*args))
    assert np.array_equal(boundary.evaluate(plan, counts), expected, equal_nan=True)
    assert len(calls) == 4
    for side, (whole, cdf) in zip(plan.sides, (calls[:2], calls[2:])):
        assert whole[1] is side.moments and np.array_equal(whole[0], counts[:, side.rows])
        assert cdf[1].base is side.moments


def test_replicate_left_with_the_near_tied_pair_fails_its_mean_fit():
    # the left mean window holds three points and a pair whose u differ in
    # the last bit; a resample that draws only the pair draws two distinct
    # values, and the rank test finds its normal equations singular
    h = 0.01 * 1.8132702392002724
    pair = np.array([-0.01, -0.01 * (1 - 2.0**-53)])
    rng = np.random.default_rng(1)
    others = np.array([-0.015, -0.008, -0.004])
    xs = np.concatenate([-rng.uniform(0.05, 1.0, 400), pair, others, rng.uniform(0.0, 1.0, 400)])
    ys = np.concatenate([np.zeros(400), [1.0, 1.0], [0.0, 1.0, 0.0], rng.uniform(size=400)])
    fit = FitConfig(order=1, bandwidths=Bandwidths(mean_left=h, mean_right=0.5, dens_left=1.0, dens_right=1.0))
    plan = build_plan(Dataset(xs=xs, ys=ys, cutoff=0.0), fit)
    counts = np.ones((2, plan.index.size))
    counts[1, np.isin(plan.index, np.arange(402, 405))] = 0.0
    values = boundary.evaluate(plan, counts)
    assert np.isfinite(values[0]).all()
    assert np.array_equal(np.isnan(values[1]), [False, True, False, False])
    kept, n_failed = drop_failed(np.repeat(values, [19, 1], axis=0), "boundary")
    assert n_failed == 1 and np.array_equal(kept, np.repeat(values[:1], 19, axis=0))


def test_too_many_failures_raise():
    data = sparse_left_sample(5)
    b = 100
    boot = BootstrapConfig(b=b, seed=SEED)
    ref = sparse_reference(data, b)
    # the left density fit needs one more distinct point than the left mean fit
    assert b - ok_rows(ref[:, 3:4]).shape[0] > 0.1 * b
    draws = bootstrap_boundary_replicates(data, boot, SPARSE_FIT)
    with pytest.raises(TooManyFailedReplicates, match="boundary"):
        bounds_from_draws(draws, TypeAssumption.TYPE2, 0.0, 1.0)
    with pytest.raises(TooManyFailedReplicates, match="density-test"):
        _density_test(draws)


def narrow_mean_window_sample(seed=0):
    """Five points inside the narrow left mean window, many more inside the
    wide left density window: a resample that draws fewer than two of the
    five fails the order-1 left mean fits and nothing else."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-0.01, 0.0, 5), rng.uniform(-1.0, -0.05, 2000), rng.uniform(0.0, 1.0, 2000)])
    ys = rng.uniform(size=xs.size)
    ws = xs + rng.normal(size=xs.size)
    return Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0, covariates={"w": ws})


NARROW_MEAN_FIT = FitConfig(bandwidths=Bandwidths(mean_left=0.02, mean_right=0.5, dens_left=1.0, dens_right=0.5))


def test_each_consumer_drops_only_its_own_failed_fits():
    data = narrow_mean_window_sample()
    b = 200
    boot = BootstrapConfig(b=b, seed=SEED)
    ref = reference(data, NARROW_MEAN_FIT, per_row_fits(data, NARROW_MEAN_FIT, ("w",)), b)
    mean_failed = np.isnan(ref[:, 1])
    assert 0 < mean_failed.sum() <= 0.1 * b
    assert not np.isnan(ref[:, [0, 2, 3]]).any()
    np.testing.assert_array_equal(np.isnan(ref[:, 5]), mean_failed)

    draws = bootstrap_boundary_replicates(data, boot, NARROW_MEAN_FIT, ("w",))
    assert_same(draws.draws, ref)
    # the bounds lose every replicate on which one of the four boundary fits failed
    _, bounds = bounds_from_draws(draws, TypeAssumption.TYPE2, 0.0, 1.0)
    assert bounds.n_failed == mean_failed.sum()
    # the density test loses none of them, with or without the covariate's columns
    alone = _density_test(bootstrap_boundary_replicates(data, boot, NARROW_MEAN_FIT))
    assert alone.replications == b and alone.warnings == ()
    outcome = protocol_from_draws(draws, alpha=1e-9)
    assert outcome.density.replications == b
    assert outcome.density.statistic == pytest.approx(alone.statistic, rel=1e-12)
    # the balance test loses the covariate's own failed fits
    [(name, balance)] = outcome.balance
    assert name == "w" and balance.replications == b - mean_failed.sum()
    assert balance == _balance_test(bootstrap_boundary_replicates(data, boot, NARROW_MEAN_FIT, ("w",)), 0)


def full_multinomial_counts(n, window, reps, seed):
    """Window counts of the full resample: n uniform row draws, counted over all n rows."""
    counts = np.empty((reps, window.size))
    for rep in range(reps):
        counts[rep] = np.bincount(replicate_rng(seed, rep).integers(0, n, n), minlength=n)[window]
    return counts


def moments_and_variances(counts):
    """Per-row means and the covariance matrix of the counts, each with the
    squared Monte Carlo standard error of its estimate."""
    reps = counts.shape[0]
    c = counts - counts.mean(axis=0)
    cov = c.T @ c / reps
    return (counts.mean(axis=0), counts.var(axis=0) / reps), (cov, ((c**2).T @ c**2 / reps - cov**2) / reps)


def test_window_draw_has_the_full_multinomial_law():
    # a binomial window total, then uniform draws over the window rows, gives
    # the window counts of the multinomial(n, 1/n) row resample
    rng = np.random.default_rng(1)
    xs = rng.normal(0.0, 1.5, 110)
    xs = np.concatenate([xs, xs[:10]])  # ties
    data = Dataset(xs=xs, ys=np.zeros(xs.size), cutoff=0.0, y_low=0.0, y_high=1.0)
    fit = config(1, KernelKind.TRIANGULAR)
    window = window_rows(data, fit)
    plan = build_plan(data, fit)
    n, m, reps = data.n, window.size, 10_000
    assert plan.rank.size == m and 20 < m < n / 2
    # the engine's counts are in x order; rank's inverse puts them in row order
    ours = boundary._draw_counts(plan, range(reps), SEED)[:, np.argsort(plan.rank)]
    full = full_multinomial_counts(n, window, reps, SEED + 1)
    # per-row means, then variances and pairwise covariances, within Monte Carlo error
    for (a, se2_a), (b, se2_b) in zip(moments_and_variances(ours), moments_and_variances(full)):
        assert np.max(np.abs(a - b) / np.sqrt(se2_a + se2_b)) < 5.0
    # the window total's variance sums them all; it is m (1 - m / n), not 0
    assert ours.sum(axis=1).var() == pytest.approx(m * (1.0 - m / n), rel=0.1)
    assert full.sum(axis=1).var() == pytest.approx(m * (1.0 - m / n), rel=0.1)


def test_sparse_side_fails_as_often_as_under_the_full_resample():
    data = sparse_left_sample(5)
    n, reps = data.n, 2000
    left_density = per_row_fits(data, SPARSE_FIT)[3]
    failed = 0
    for rep in range(reps):
        try:
            left_density(replicate_rng(SEED + 1, rep).integers(0, n, n))
        except DataError:
            failed += 1
    draws = run_replicates(build_plan(data, SPARSE_FIT), reps, SEED)
    ours, full = np.isnan(draws[:, 3]).mean(), failed / reps
    assert ours > 0.1 and full > 0.1
    se = np.sqrt((ours * (1 - ours) + full * (1 - full)) / reps)
    assert abs(ours - full) < 5.0 * se
