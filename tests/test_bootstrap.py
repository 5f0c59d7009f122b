"""The count-based bootstrap engine against per-row fits on every resample.

The reference loop draws the same keyed indices and applies each per-row
fit (``local_poly_fit``, ``boundary_density``) to ``xs[idx]`` on its own,
so a fit that raises blanks only its own cell, with the discreteness
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
    RMode,
    TypeAssumption,
    balance_test,
    bootstrap_boundary_replicates,
    bounds_from_draws,
    density_discontinuity_test,
)
from mrdd import _bootstrap, localfit
from mrdd._bootstrap import drop_failed, replicate_rng, run_replicates
from mrdd.diagnostics import protocol_from_draws
from mrdd.errors import DataError, TooManyFailedReplicates
from mrdd.localfit import Side, boundary_density, local_poly_fit

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
        return lambda idx: local_poly_fit(xs[idx], values[idx], c, spec).coefficients[0]

    def density(side):
        return lambda idx: boundary_density(xs[idx], c, fit.density_spec(side))[0]

    stats = [mean(data.ys, mean_r), mean(data.ys, mean_l), density(Side.RIGHT), density(Side.LEFT)]
    for name in covariates:
        stats += [mean(data.covariates[name], mean_r), mean(data.covariates[name], mean_l)]
    return stats


def reference(n, stats, b=B):
    """Per-replicate loop over the keyed draws: a column per fit, NaN where that fit raises."""
    cells = np.full((b, len(stats)), np.nan)
    for rep in range(b):
        idx = replicate_rng(SEED, rep).integers(0, n, n)
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


def config(order, kernel):
    bw = Bandwidths(mean_left=H, mean_right=2 * H, dens_left=H, dens_right=H)
    return FitConfig(order=order, kernel=kernel, bandwidths=bw)


@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("order", [0, 1, 2])
def test_engine_matches_per_row_fits(order, kernel):
    data = tied_sample()
    fit = config(order, kernel)
    boot = BootstrapConfig(b=B, seed=SEED)
    whole = np.arange(data.n)

    draws = bootstrap_boundary_replicates(data, boot, fit, ("w",))
    stats = per_row_fits(data, fit, ("w",))
    ref = reference(data.n, stats)
    assert_same(draws.draws, ref)
    boundary, n_failed = drop_failed(draws.draws[:, :4], "boundary")
    assert n_failed == B - ok_rows(ref[:, :4]).shape[0]
    assert_same(boundary, ok_rows(ref[:, :4]))

    res = density_discontinuity_test(data, fit, boot)
    point = stats[2](whole) - stats[3](whole)
    assert res.statistic == pytest.approx(jump_statistic(point, ref[:, 2:4]), rel=1e-9)
    assert res.replications == ok_rows(ref[:, 2:4]).shape[0]

    res = balance_test(data, "w", fit, boot)
    point = stats[4](whole) - stats[5](whole)
    assert res.statistic == pytest.approx(jump_statistic(point, ref[:, 4:6]), rel=1e-9)
    assert res.replications == ok_rows(ref[:, 4:6]).shape[0]


def test_chunks_and_workers_do_not_change_draws(monkeypatch):
    data = tied_sample()
    fit = config(1, KernelKind.TRIANGULAR)
    columns = (data.ys, data.covariates["w"])
    whole = run_replicates(data.xs, 0.0, fit, columns, 200, SEED)
    monkeypatch.setattr(_bootstrap, "CHUNK_BYTES", 1 << 16)  # a few replicates per chunk
    one = run_replicates(data.xs, 0.0, fit, columns, 200, SEED, workers=1)
    three = run_replicates(data.xs, 0.0, fit, columns, 200, SEED, workers=3)
    assert one.shape == (200, 6)
    assert np.array_equal(one, three)
    np.testing.assert_allclose(one, whole, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_boundary_draws_do_not_depend_on_covariates(order):
    # the outcome's moment block is multiplied on its own, so the covariates'
    # columns cannot change how its sums round
    rng = np.random.default_rng(0)
    xs = rng.normal(0.0, 0.6, 1000)
    ys = (rng.uniform(size=xs.size) < 0.4 + 0.2 * (xs >= 0)).astype(float)
    covs = {f"w{j}": 0.5 * xs + rng.normal(size=xs.size) for j in range(1, 5)}
    data = Dataset(xs=xs, ys=ys, cutoff=0.0, y_low=0.0, y_high=1.0, covariates=covs)
    boot, fit = BootstrapConfig(b=B, seed=SEED), FitConfig(order=order)
    alone = bootstrap_boundary_replicates(data, boot, fit).draws
    draws = bootstrap_boundary_replicates(data, boot, fit, tuple(covs)).draws
    assert draws.shape == (B, 12)
    assert np.array_equal(draws[:, :4], alone)


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
    return reference(data.n, per_row_fits(data, SPARSE_FIT), b)


def test_few_failures_are_dropped():
    data = sparse_left_sample(8)
    b = 200
    ref = sparse_reference(data, b)
    n_failed = b - ok_rows(ref).shape[0]
    assert 0 < n_failed <= 0.1 * b
    draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=b, seed=SEED), SPARSE_FIT)
    assert_same(draws.draws, ref)
    bounds = bounds_from_draws(draws, TypeAssumption.TYPE2, RMode.FIXED, 0.0, 1.0)
    assert bounds.n_failed == n_failed
    assert bounds.replicates.shape == (b - n_failed, 2)


def test_too_many_failures_raise():
    data = sparse_left_sample(5)
    b = 100
    boot = BootstrapConfig(b=b, seed=SEED)
    ref = sparse_reference(data, b)
    # the left density fit needs one more distinct point than the left mean fit
    assert b - ok_rows(ref[:, 3:4]).shape[0] > 0.1 * b
    draws = bootstrap_boundary_replicates(data, boot, SPARSE_FIT)
    with pytest.raises(TooManyFailedReplicates, match="boundary"):
        bounds_from_draws(draws, TypeAssumption.TYPE2, RMode.FIXED, 0.0, 1.0)
    with pytest.raises(TooManyFailedReplicates, match="density-test"):
        density_discontinuity_test(data, SPARSE_FIT, boot)


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
    ref = reference(data.n, per_row_fits(data, NARROW_MEAN_FIT, ("w",)), b)
    mean_failed = np.isnan(ref[:, 1])
    assert 0 < mean_failed.sum() <= 0.1 * b
    assert not np.isnan(ref[:, [0, 2, 3]]).any()
    np.testing.assert_array_equal(np.isnan(ref[:, 5]), mean_failed)

    draws = bootstrap_boundary_replicates(data, boot, NARROW_MEAN_FIT, ("w",))
    assert_same(draws.draws, ref)
    # the bounds lose every replicate on which one of the four boundary fits failed
    bounds = bounds_from_draws(draws, TypeAssumption.TYPE2, RMode.RANDOM, 0.0, 1.0)
    assert bounds.n_failed == mean_failed.sum()
    # the density test loses none of them, with or without the covariate's columns
    alone = density_discontinuity_test(data, NARROW_MEAN_FIT, boot)
    assert alone.replications == b and alone.warnings == ()
    outcome = protocol_from_draws(draws, alpha=1e-9)
    assert outcome.density.replications == b
    assert outcome.density.statistic == pytest.approx(alone.statistic, rel=1e-12)
    # the balance test loses the covariate's own failed fits
    [(name, balance)] = outcome.balance
    assert name == "w" and balance.replications == b - mean_failed.sum()
    assert balance == balance_test(data, "w", NARROW_MEAN_FIT, boot)
