"""The count-based bootstrap engine against per-row fits on every resample.

The reference loop draws the same keyed indices and applies the per-row
fits (``_boundary_from_arrays``, ``local_poly_fit``,
``boundary_density``) to ``xs[idx]``, with the discreteness
heuristic off as resamples duplicate values by construction.
"""

import numpy as np
import pytest

from mrdd import (
    Bandwidths,
    BootstrapConfig,
    Dataset,
    FitConfig,
    KernelKind,
    balance_test,
    bootstrap_boundary_replicates,
    density_discontinuity_test,
)
from mrdd import _bootstrap, localfit
from mrdd._bootstrap import (
    BALANCE_TEST_STREAM,
    BOUNDS_STREAM,
    DENSITY_TEST_STREAM,
    DensityFit,
    MeanFit,
    replicate_rng,
    run_replicates,
)
from mrdd.boundary import _boundary_from_arrays
from mrdd.errors import DataError, TooManyFailedReplicates
from mrdd.localfit import FitSpec, Side, boundary_density, local_poly_fit

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


def reference(n, stream, stat, width, b=B):
    """Per-replicate loop over the keyed draws; NaN rows where a fit raises."""
    rows = np.full((b, width), np.nan)
    for rep in range(b):
        idx = replicate_rng(SEED, *stream, rep).integers(0, n, n)
        try:
            rows[rep] = stat(idx)
        except DataError:
            pass
    return rows


def ok_rows(values):
    return values[~np.isnan(values).any(axis=1)]


def assert_same(values, ref):
    assert values.shape == ref.shape
    np.testing.assert_array_equal(np.isnan(values).any(axis=1), np.isnan(ref).any(axis=1))
    np.testing.assert_allclose(values, ref, rtol=0.0, atol=1e-9)


def config(order, kernel):
    bw = Bandwidths(mean_left=H, mean_right=2 * H, dens_left=H, dens_right=H)
    return FitConfig(mean_order=order, density_order=order, kernel=kernel, bandwidths=bw)


@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("order", [0, 1, 2])
def test_engine_matches_per_row_fits(order, kernel):
    data = tied_sample()
    xs, ys, ws, c, n = data.xs, data.ys, data.covariates["w"], data.cutoff, data.n
    fit = config(order, kernel)
    bw = fit.bandwidths

    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=B, seed=SEED), fit)
    ref = reference(n, (BOUNDS_STREAM,), lambda idx: _boundary_from_arrays(xs[idx], ys[idx], c, fit, bw)[:4], 4)
    assert draws.n_failed == B - ok_rows(ref).shape[0]
    assert_same(draws.draws, ok_rows(ref))

    dens_l = FitSpec(order, bw.dens_left, kernel, Side.LEFT)
    dens_r = FitSpec(order, bw.dens_right, kernel, Side.RIGHT)
    values, _ = run_replicates(xs, c, (DensityFit(dens_r), DensityFit(dens_l)), B, SEED, (DENSITY_TEST_STREAM,))
    ref = reference(n, (DENSITY_TEST_STREAM,), lambda idx: (
        boundary_density(xs[idx], c, dens_r)[0], boundary_density(xs[idx], c, dens_l)[0]), 2)
    assert_same(values, ref)
    jumps = ref[:, 0] - ref[:, 1]
    point = boundary_density(xs, c, dens_r)[0] - boundary_density(xs, c, dens_l)[0]
    res = density_discontinuity_test(data, fit, b=B, seed=SEED)
    assert res.statistic == pytest.approx(point / np.std(jumps, ddof=1), rel=1e-9)

    mean_l = FitSpec(order, bw.mean_left, kernel, Side.LEFT)
    mean_r = FitSpec(order, bw.mean_right, kernel, Side.RIGHT)
    stream = (BALANCE_TEST_STREAM, 0)
    values, _ = run_replicates(xs, c, (MeanFit(mean_r, ws), MeanFit(mean_l, ws)), B, SEED, stream)
    ref = reference(n, stream, lambda idx: (
        local_poly_fit(xs[idx], ws[idx], c, mean_r).coefficients[0],
        local_poly_fit(xs[idx], ws[idx], c, mean_l).coefficients[0]), 2)
    assert_same(values, ref)
    jumps = ref[:, 0] - ref[:, 1]
    point = (local_poly_fit(xs, ws, c, mean_r).coefficients[0]
             - local_poly_fit(xs, ws, c, mean_l).coefficients[0])
    res = balance_test(data, "w", fit, b=B, seed=SEED)
    assert res.statistic == pytest.approx(point / np.std(jumps, ddof=1), rel=1e-9)


def test_chunks_and_workers_do_not_change_draws(monkeypatch):
    data = tied_sample()
    fits = (DensityFit(FitSpec(1, H, side=Side.RIGHT)), MeanFit(FitSpec(2, H, side=Side.LEFT), data.ys))
    whole, _ = run_replicates(data.xs, 0.0, fits, 200, SEED, (BOUNDS_STREAM,))
    monkeypatch.setattr(_bootstrap, "CHUNK_BYTES", 1 << 16)  # a few replicates per chunk
    one, _ = run_replicates(data.xs, 0.0, fits, 200, SEED, (BOUNDS_STREAM,), workers=1)
    three, _ = run_replicates(data.xs, 0.0, fits, 200, SEED, (BOUNDS_STREAM,), workers=3)
    assert np.array_equal(one, three)
    np.testing.assert_allclose(one, whole, rtol=1e-12, atol=0.0)


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
    xs, ys = data.xs, data.ys
    bw = SPARSE_FIT.bandwidths
    return reference(
        data.n, (BOUNDS_STREAM,), lambda idx: _boundary_from_arrays(xs[idx], ys[idx], 0.0, SPARSE_FIT, bw)[:4], 4, b
    )


def test_few_failures_are_dropped():
    data = sparse_left_sample(8)
    b = 200
    ref = sparse_reference(data, b)
    n_failed = b - ok_rows(ref).shape[0]
    assert 0 < n_failed <= 0.1 * b
    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=b, seed=SEED), SPARSE_FIT)
    assert draws.n_failed == n_failed
    assert_same(draws.draws, ok_rows(ref))


def test_too_many_failures_raise():
    data = sparse_left_sample(5)
    b = 100
    assert b - ok_rows(sparse_reference(data, b)).shape[0] > 0.1 * b
    with pytest.raises(TooManyFailedReplicates):
        bootstrap_boundary_replicates(data, BootstrapConfig(b=b, seed=SEED), SPARSE_FIT)
