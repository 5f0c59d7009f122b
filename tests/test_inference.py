import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mrdd import (
    BootstrapConfig,
    BoundaryDraws,
    BoundaryEstimates,
    IntervalCI,
    TypeAssumption,
    bootstrap_boundary_replicates,
    bounds_from_draws,
    crude_bounds,
    crude_interval,
    gen_appendix_d,
    imbens_manski_ci,
    oracle_appendix_d,
)
from mrdd import boundary
from mrdd.errors import InvalidConfig, InvalidInputs, InvalidOutcomeRange


class TestBootstrapBounds:
    def test_deterministic(self, appendix_d_small):
        data = appendix_d_small.data
        cfg = BootstrapConfig(b=64, seed=21)
        first, second = (
            bounds_from_draws(bootstrap_boundary_replicates(data, cfg), TypeAssumption.TYPE2, data.y_low, data.y_high)
            for _ in range(2)
        )
        for a, b in zip(first, second):
            assert a.point == b.point
            assert np.array_equal(a.replicates, b.replicates)
            assert (a.se_lower, a.se_upper) == (b.se_lower, b.se_upper)

    def test_worker_count_invariance(self, appendix_d_small):
        data = appendix_d_small.data
        one, four = (
            bounds_from_draws(
                bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=5, workers=workers)),
                TypeAssumption.TYPE2, data.y_low, data.y_high,
            )[0]
            for workers in (1, 4)
        )
        assert np.array_equal(one.replicates, four.replicates)

    def test_fixed_r_type4_widths_constant(self, appendix_d_small):
        data = appendix_d_small.data
        draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=2))
        res, _ = bounds_from_draws(draws, TypeAssumption.TYPE4, data.y_low, data.y_high)
        widths = res.replicates[:, 1] - res.replicates[:, 0]
        expected = (1.0 / draws.point.r - 1.0) * (data.y_high - data.y_low)
        assert np.all(np.abs(widths - expected) < 1e-12)

    def test_random_r_widths_vary(self, appendix_d_small):
        data = appendix_d_small.data
        _, res = bounds_from_draws(
            bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=2)),
            TypeAssumption.TYPE4, data.y_low, data.y_high,
        )
        widths = res.replicates[:, 1] - res.replicates[:, 0]
        assert np.std(widths) > 0

    def test_requires_outcome_range(self, appendix_d_small):
        from mrdd import Dataset

        data = appendix_d_small.data
        stripped = Dataset(xs=data.xs, ys=data.ys, cutoff=data.cutoff)
        draws = bootstrap_boundary_replicates(stripped, BootstrapConfig(b=64, seed=0))
        with pytest.raises(InvalidOutcomeRange):
            bounds_from_draws(draws, TypeAssumption.TYPE2, stripped.y_low, stripped.y_high)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            BootstrapConfig(b=10, seed=0)
        with pytest.raises(InvalidConfig):
            BootstrapConfig(b=100, seed=0, alpha=1.5)
        # above 0.5 the one-sided quantile is negative
        with pytest.raises(InvalidConfig):
            BootstrapConfig(b=100, seed=0, alpha=np.nextafter(0.5, 1.0))
        assert BootstrapConfig(b=100, seed=0, alpha=0.5).alpha == 0.5

    @pytest.mark.slow
    def test_bootstrap_se_calibrated_against_monte_carlo(self):
        # bootstrap SE of the upper boundary mean vs the spread of the
        # estimator across fresh samples
        draws = bootstrap_boundary_replicates(
            gen_appendix_d(0.1, 0.05, 50_000, 0).data, BootstrapConfig(b=200, seed=0)
        )
        boot_se = np.std(draws.draws[:, 0], ddof=1)
        mc = []
        for seed in range(100):
            ts = gen_appendix_d(0.1, 0.05, 50_000, 1000 + seed)
            from mrdd import estimate_boundary

            mc.append(estimate_boundary(ts.data).mu_plus)
        mc_se = np.std(mc, ddof=1)
        assert boot_se < 2 * mc_se
        assert boot_se > 0.5 * mc_se

    @pytest.mark.slow
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "fixed-r coverage of the true set endpoints is structurally ~88.5% "
            "here (177-178/200 at B in {200, 500}): upward r-hat draws shrink the "
            "estimated set and a fixed-r CI cannot hedge density-ratio noise. "
            "The random-r companion below reaches 195/200."
        ),
    )
    def test_fixed_r_ci_coverage(self, coverage_passes):
        # the 95% interval CI should cover the true bound endpoints in at
        # least 90% of seeded replications
        assert ci_coverage(coverage_passes)[0] >= 0.9 * len(coverage_passes)

    @pytest.mark.slow
    def test_random_r_ci_coverage(self, coverage_passes):
        # re-estimating the density ratio per replicate prices its sampling
        # noise into the endpoint SEs and restores coverage
        assert ci_coverage(coverage_passes)[1] >= 0.9 * len(coverage_passes)


@pytest.fixture(scope="module")
def coverage_passes():
    """One B=200 pass for each of 200 seeded (0.1, 0.05) samples at n=20k, read by both r modes."""
    passes = []
    for seed in range(200):
        data = gen_appendix_d(0.1, 0.05, 20_000, seed).data
        passes.append(bootstrap_boundary_replicates(data, BootstrapConfig(b=200, seed=seed)))
    return passes


def ci_coverage(passes):
    """How many of the passes' 95% Imbens-Manski CIs cover the population's
    crude set, with fixed r and with random r."""
    row = oracle_appendix_d(0.1, 0.05)
    covered = np.zeros(2, dtype=int)
    for draws in passes:
        # appendix-d outcomes are binary, so every sample's range is [0, 1]
        for mode, bb in enumerate(bounds_from_draws(draws, TypeAssumption.TYPE2, 0.0, 1.0)):
            ci = imbens_manski_ci(bb.point.lower, bb.point.upper, bb.se_lower, bb.se_upper, 0.05)
            covered[mode] += ci.lo <= row.crude_lower and row.crude_upper <= ci.hi
    return covered


Y_LOW, Y_HIGH = -3.7, 11.3
# bounds_from_draws returns (fixed, random); each r mode is its own case
R_MODES, R_MODE_IDS = (0, 1), ("fixed", "random")


def per_replicate_loop(draws, assumption, y_low=Y_LOW, y_high=Y_HIGH):
    """Each replicate through the scalar bound function, one at a time: at
    the point's density ratio (fixed r), then at its own (random r)."""
    fixed, random_ = np.empty((2, draws.draws.shape[0], 2))
    point = draws.point
    for i, (mu_p, mu_m, f_p, f_m) in enumerate(draws.draws):
        for reps, r in ((fixed, point.f_minus / point.f_plus), (random_, float(f_m / f_p))):
            res = crude_bounds(float(mu_p), float(mu_m), r, y_low, y_high, assumption)
            reps[i] = (res.lower, res.upper)
    return fixed, random_


def python_crude(mu_p, mu_m, r, assumption, y_low=Y_LOW, y_high=Y_HIGH):
    """The crude interval in Python floats with the builtin min and max,
    and whether its ends crossed by a rounding error and were snapped."""
    r = min(r, 1.0)
    l1 = (mu_p - y_high) - r * (mu_m - y_high)
    l2 = (mu_p - y_high) / r - (mu_m - y_high)
    u1 = (mu_p - y_low) - r * (mu_m - y_low)
    u2 = (mu_p - y_low) / r - (mu_m - y_low)
    lower, upper = {
        TypeAssumption.TYPE3: (l1, u1),
        TypeAssumption.TYPE4: (l2, u2),
    }.get(assumption, (min(l1, l2), max(u1, u2)))
    if upper < lower <= upper + 1e-9 * max(1.0, abs(y_low), abs(y_high)):
        return 0.5 * (lower + upper), 0.5 * (lower + upper), True
    return lower, upper, False


def same_bits(got, expected):
    """Equal bit for bit, except that a NaN's sign and payload are not compared."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == expected[~nan].tobytes()


def synthetic_draws(point_r):
    """Draw rows with r below one, above one (within and beyond the
    refutation tolerance) and exactly one, where rounding crosses the ends."""
    rng = np.random.default_rng(7)
    n = 600
    mu = rng.uniform(Y_LOW, Y_HIGH, size=(n, 2))
    f_plus = rng.uniform(0.2, 3.0, size=n)
    r = np.concatenate([rng.uniform(0.1, 1.3, n // 3), np.full(n // 3, 1.01), np.ones(n - 2 * (n // 3))])
    f_minus = np.where(r == 1.0, f_plus, r * f_plus)
    # the point's f_minus / f_plus lies an ulp or so from its r, so a fixed
    # r taken from r instead of the densities moves the ends
    point = BoundaryEstimates(
        mu_plus=2.5, mu_minus=1.75, f_plus=0.8, f_minus=np.nextafter(0.8 * point_r, 1.0), r=point_r,
        bandwidths=dict.fromkeys(boundary.FITS, 1.0), n_effective=dict.fromkeys(boundary.FITS, 0),
    )
    if point_r == 1.0:
        point = replace(point, f_minus=point.f_plus)
    return BoundaryDraws(point=point, draws=np.column_stack([mu, f_plus, f_minus]))


class TestBoundsFromDraws:
    @pytest.mark.parametrize("point_r", [0.83, 1.0, 1.1])
    @pytest.mark.parametrize("mode", R_MODES, ids=R_MODE_IDS)
    @pytest.mark.parametrize("assumption", list(TypeAssumption))
    def test_replicates_equal_per_replicate_loop(self, assumption, mode, point_r):
        # one r mode of the one call, checked against its per-row reference
        draws = synthetic_draws(point_r)
        point = draws.point
        modes = bounds_from_draws(draws, assumption, Y_LOW, Y_HIGH)
        assert len(modes) == 2
        got, reference = modes[mode], per_replicate_loop(draws, assumption)[mode]
        assert got.replicates.tobytes() == reference.tobytes()
        assert got.point == crude_bounds(point.mu_plus, point.mu_minus, point.r, Y_LOW, Y_HIGH, assumption)
        assert got.se_lower == float(np.std(reference[:, 0], ddof=1))
        assert got.se_upper == float(np.std(reference[:, 1], ddof=1))
        assert got.point_se == float(np.std(draws.draws[:, 0] - draws.draws[:, 1], ddof=1))
        assert got.n_failed == 0

    @pytest.mark.parametrize("assumption", list(TypeAssumption))
    def test_rows_with_r_one_are_snapped_like_python_floats(self, assumption):
        # the tie rules and the snap as plain Python float code gives them,
        # on rows where rounding makes the raw ends cross
        draws = synthetic_draws(1.0)
        got = bounds_from_draws(draws, assumption, Y_LOW, Y_HIGH)[1].replicates
        snapped = 0
        for (mu_p, mu_m, f_p, f_m), ends in zip(draws.draws.tolist(), got.tolist()):
            lower, upper, crossed = python_crude(mu_p, mu_m, f_m / f_p, assumption)
            snapped += crossed
            assert np.array(ends).tobytes() == np.array([lower, upper]).tobytes()
        assert snapped > 0

    @pytest.mark.parametrize("assumption", list(TypeAssumption))
    def test_overflow_passes_silently_as_in_python_floats(self, assumption):
        mu_p = np.array([1e308, -1e308, 0.5, 1e308])
        mu_m = np.array([-1e308, 1e308, 0.25, 1e308])
        r = np.array([1e-300, 1e-300, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = crude_interval(mu_p, mu_m, r, -1e308, 1e308, assumption)
        rows = zip(mu_p.tolist(), mu_m.tolist(), r.tolist())
        expected = [python_crude(*row, assumption, -1e308, 1e308)[:2] for row in rows]
        assert not np.isfinite(got).all()
        assert same_bits(np.column_stack(got), expected)

    @pytest.mark.parametrize("mode", R_MODES, ids=R_MODE_IDS)
    def test_endpoint_ses_cannot_overflow(self, mode):
        # replicate ends near 1e300 square past the float limit inside np.std
        draws = synthetic_draws(0.83)
        scale = 1e300 / Y_HIGH
        point = replace(draws.point, mu_plus=draws.point.mu_plus * scale, mu_minus=draws.point.mu_minus * scale)
        huge = replace(draws, point=point, draws=draws.draws * [scale, scale, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bounds_from_draws(huge, TypeAssumption.TYPE3, Y_LOW * scale, Y_HIGH * scale)[mode]
            reference = per_replicate_loop(huge, TypeAssumption.TYPE3, Y_LOW * scale, Y_HIGH * scale)[mode]
        assert got.replicates.tobytes() == reference.tobytes()
        assert np.isfinite(got.replicates).all()
        for se, ends in ((got.se_lower, got.replicates[:, 0]), (got.se_upper, got.replicates[:, 1])):
            assert np.isfinite(se) and se > 0
            assert se == pytest.approx(float(np.std(ends / 1e300, ddof=1)) * 1e300, rel=1e-12)


class TestImbensManski:
    def test_point_identified_limit(self):
        ci = imbens_manski_ci(0.3, 0.3, 0.1, 0.1, alpha=0.05)
        z_two = stats.norm.ppf(0.975)
        assert ci.c_bar == pytest.approx(z_two, abs=1e-4)
        assert ci.lo == pytest.approx(0.3 - z_two * 0.1, abs=1e-4)

    def test_wide_interval_limit(self):
        ci = imbens_manski_ci(0.0, 100.0, 0.1, 0.1, alpha=0.05)
        assert ci.c_bar == pytest.approx(stats.norm.ppf(0.95), abs=1e-3)

    def test_brute_force_scan_oracle(self):
        # independent oracle: scan the defining equation on a fine grid
        lower, upper, se = 0.0, 0.2, 0.05
        alpha = 0.05
        grid = np.linspace(stats.norm.ppf(1 - alpha) - 0.01, stats.norm.ppf(1 - alpha / 2), 200_001)
        vals = stats.norm.cdf(grid + (upper - lower) / se) - stats.norm.cdf(-grid) - (1 - alpha)
        c_scan = grid[np.argmax(vals >= 0)]
        ci = imbens_manski_ci(lower, upper, se, se, alpha)
        assert ci.c_bar == pytest.approx(c_scan, abs=1e-4)

    def test_alpha_above_half_refused(self):
        # a level above 0.5 would give c_bar < 0, an interval inside the set
        for alpha in (np.nextafter(0.5, 1.0), 0.6, 0.9, 1.0, 0.0, -0.1, float("nan")):
            with pytest.raises(InvalidInputs):
                imbens_manski_ci(0.0, 0.2, 0.05, 0.05, alpha)
        for lower, upper in ((0.0, 0.2), (0.1, 0.1)):
            ci = imbens_manski_ci(lower, upper, 0.05, 0.05, 0.5)
            assert ci.c_bar >= 0.0
            assert ci.lo <= lower and upper <= ci.hi

    def test_alpha_below_double_epsilon_gives_the_whole_line(self):
        # 1 - alpha rounds to 1: the quantiles, c_bar and the ends are infinite
        for alpha in (1e-17, 5e-324):
            for lower, upper in ((0.0, 0.2), (0.1, 0.1)):
                ci = imbens_manski_ci(lower, upper, 0.05, 0.05, alpha)
                assert (ci.lo, ci.hi, ci.c_bar) == (-np.inf, np.inf, np.inf)
            assert imbens_manski_ci(0.0, 0.2, 0.0, 0.0, alpha) == IntervalCI(0.0, 0.2, np.inf)

    def test_contains_identified_set(self, rng):
        for _ in range(200):
            lo = rng.normal()
            hi = lo + rng.uniform(0, 2)
            se_l, se_u = rng.uniform(0, 0.5, 2)
            ci = imbens_manski_ci(lo, hi, se_l, se_u, 0.05)
            assert ci.lo <= lo and hi <= ci.hi

    def test_c_bar_monotone_in_width_ratio(self):
        cbars = [
            imbens_manski_ci(0.0, w, 0.1, 0.1, 0.05).c_bar for w in np.linspace(0.0, 1.0, 21)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(cbars, cbars[1:]))
        z1, z2 = stats.norm.ppf(0.95), stats.norm.ppf(0.975)
        assert all(z1 - 1e-9 <= c <= z2 + 1e-9 for c in cbars)

    def test_degenerate_ses_return_identified_set(self):
        ci = imbens_manski_ci(0.1, 0.4, 0.0, 0.0, 0.05)
        assert (ci.lo, ci.hi) == (0.1, 0.4)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputs):
            imbens_manski_ci(0.5, 0.4, 0.1, 0.1, 0.05)
        with pytest.raises(InvalidInputs):
            imbens_manski_ci(0.0, 1.0, -0.1, 0.1, 0.05)
        with pytest.raises(InvalidInputs):
            imbens_manski_ci(0.0, 1.0, 0.1, 0.1, 0.0)
