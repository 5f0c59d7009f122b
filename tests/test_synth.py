import numpy as np
import pytest
from scipy import stats

from mrdd import (
    Dataset,
    estimate_boundary,
    gen_appendix_d,
    gen_counterexample_e,
    gen_typed,
    oracle_appendix_d,
    write_typed_csv,
)
from mrdd.cli import ingest
from mrdd.synth import MIN_JUMP, TypedSample
from mrdd.errors import (
    ConfigError,
    InvalidConfig,
    MissingColumn,
)
from oracles import binary_sharp_gfuncs, brute_force_trimming, verify_lemma_moments, weighted_trimmed_means

LATENTS = ("x_star", "manipulated", "t_type")

THETA_TRUE = float(stats.norm.cdf(-0.5) - stats.norm.cdf(-1.0))


class TestGenAppendixD:
    def test_no_manipulation_at_p_zero(self):
        ts = gen_appendix_d(0.0, 0.05, 5_000, 3)
        assert np.array_equal(ts.data.xs, ts.x_star)
        assert ts.manipulation_fraction() == 0.0

    def test_attempt_share_below_cutoff(self):
        ts = gen_appendix_d(0.1, 0.05, 1_000_000, 5)
        below = ts.x_star < 0
        share = np.mean(ts.manipulated[below])
        assert share == pytest.approx(0.1, abs=0.003)

    def test_manipulators_always_land_above(self):
        ts = gen_appendix_d(0.1, 0.05, 1_000_000, 5)
        assert np.all(ts.data.xs[ts.manipulated] >= 0.0)

    def test_no_manipulation_from_above(self):
        ts = gen_appendix_d(0.3, 0.3, 500_000, 2)
        assert not np.any(ts.manipulated[ts.x_star >= 0.0])

    def test_param_validation(self):
        with pytest.raises(InvalidConfig, match=r"^p must lie in \[0, 1\], got 1.5$"):
            gen_appendix_d(1.5, 0.05, 10, 0)
        with pytest.raises(InvalidConfig, match=r"^lambda must be finite and at least 3.6e-307, got 0.0$"):
            gen_appendix_d(0.5, 0.0, 10, 0)


class TestOracleAppendixD:
    # published values for the four (p, lam) rows
    ROWS = [
        ((0.1, 0.05), 0.060, 0.185, 0.060, 0.185, 0.894),
        ((0.1, 0.3), 0.032, 0.190, 0.032, 0.190, 0.867),
        ((0.3, 0.05), -0.170, 0.286, -0.168, 0.286, 0.687),
        ((0.3, 0.3), -0.287, 0.303, -0.254, 0.303, 0.629),
    ]

    @pytest.mark.parametrize("params,cl,cu,sl,su,r", ROWS)
    def test_reference_rows(self, params, cl, cu, sl, su, r):
        row = oracle_appendix_d(*params)
        assert row.crude_lower == pytest.approx(cl, abs=0.003)
        assert row.crude_upper == pytest.approx(cu, abs=0.003)
        assert row.sharp_lower == pytest.approx(sl, abs=0.003)
        assert row.sharp_upper == pytest.approx(su, abs=0.003)
        assert row.r == pytest.approx(r, abs=0.003)

    def test_theta_constant_across_params(self):
        for p, lam in [(0.0, 0.1), (0.1, 0.05), (0.25, 0.2), (0.3, 0.3)]:
            row = oracle_appendix_d(p, lam)
            assert row.theta_true == pytest.approx(0.150, abs=0.001)

    def test_tail_integral_against_mpmath(self):
        # the closed form against an independent high-precision quadrature
        # for the manipulators' mean
        import mpmath

        from mrdd.synth import _tail_integral

        with mpmath.workdps(30):
            for shift in (0.5, 1.0):
                expected = 2.0 * float(
                    mpmath.quad(lambda x: mpmath.ncdf(x - shift) * mpmath.npdf(x), [-mpmath.inf, 0])
                )
                assert _tail_integral(1 if shift == 0.5 else 0) == pytest.approx(expected, rel=1e-15)

    def test_grid_invariants(self):
        for p in np.linspace(0.0, 0.3, 5):
            for lam in np.linspace(0.05, 0.3, 5):
                row = oracle_appendix_d(float(p), float(lam))
                assert row.crude_lower - 1e-9 <= row.sharp_lower
                assert row.sharp_upper <= row.crude_upper + 1e-9
                assert row.sharp_lower - 1e-9 <= row.theta_true <= row.sharp_upper + 1e-9

    def test_mean_jump_understates_nothing_at_p_zero(self):
        row = oracle_appendix_d(0.0, 0.2)
        assert row.r == pytest.approx(1.0, abs=1e-12)
        assert row.crude_lower == pytest.approx(row.theta_true, abs=1e-9)
        assert row.crude_upper == pytest.approx(row.theta_true, abs=1e-9)


@pytest.fixture(scope="module")
def counterexample_sample():
    return gen_counterexample_e(1_000_000, seed=3)


class TestCounterexample:
    def test_boundary_window_means(self, counterexample_sample):
        # the conditional mean is linear within each side, so a window of
        # width w carries a -w/2 discretisation offset; keep w small
        x, y = counterexample_sample.data.xs, counterexample_sample.data.ys
        left = y[(x >= -0.005) & (x < 0)].mean()
        right = y[(x >= 0) & (x < 0.005)].mean()
        assert left == pytest.approx(-1 / 6, abs=0.01)
        assert right == pytest.approx(-1 / 2, abs=0.01)

    def test_density_smooth_at_cutoff(self, counterexample_sample):
        x = counterexample_sample.data.xs
        w = 0.01
        n_left = np.count_nonzero((x >= -w) & (x < 0))
        n_right = np.count_nonzero((x >= 0) & (x < w))
        se = np.sqrt(n_left + n_right)
        assert abs(n_right - n_left) < 2 * se

    def test_monotone_manipulation(self, counterexample_sample):
        assert np.all(counterexample_sample.data.xs >= counterexample_sample.x_star)

    def test_mean_jump_with_smooth_density(self, counterexample_sample):
        be = estimate_boundary(counterexample_sample.data)
        assert be.mu_plus - be.mu_minus == pytest.approx(-1 / 3, abs=0.02)
        assert be.r == pytest.approx(1.0, abs=0.05)

    def test_continuity_link_flags_the_failure(self, counterexample_sample):
        # treatment effect is zero by construction: a smooth density should
        # have implied a zero mean jump, and the residual exposes that
        report = verify_lemma_moments(counterexample_sample, window=0.02, point_effect=0.0)
        assert report.residuals["continuity_link"] > 0.25
        # the above-cutoff mixture identity itself still holds
        assert report.residuals["mix_plus"] < 0.02

    def test_noise_parameter(self):
        ts = gen_counterexample_e(10_000, seed=1, noise_sd=0.3)
        resid = ts.data.ys - ts.x_star
        assert np.std(resid) == pytest.approx(0.3, abs=0.02)


class TestGenTyped:
    def test_pure_type0(self):
        ts = gen_typed({0: 1.0}, n=10_000, seed=0)
        assert np.array_equal(ts.data.xs, ts.x_star)

    def test_type3_attempts_may_fail_to_cross(self):
        ts = gen_typed({3: 1.0}, n=200_000, seed=1)
        manip_from_below = ts.manipulated & (ts.x_star < 0)
        crossed = ts.data.xs[manip_from_below] >= 0
        assert 0.0 < crossed.mean() < 1.0

    def test_min_jump_enforced(self):
        for shares in ({1: 1.0}, {2: 1.0}, {3: 1.0}, {4: 1.0}):
            ts = gen_typed(shares, n=50_000, seed=2)
            gaps = np.abs(ts.data.xs[ts.manipulated] - ts.x_star[ts.manipulated])
            assert np.all(gaps > MIN_JUMP)

    def test_one_sided_types_land_above(self):
        for shares in ({2: 1.0}, {4: 1.0}):
            ts = gen_typed(shares, n=50_000, seed=3)
            assert np.all(ts.data.xs[ts.manipulated] >= 0.0)

    def test_sorting_types_never_attempt_from_above(self):
        for shares in ({2: 1.0}, {3: 1.0}):
            ts = gen_typed(shares, n=50_000, seed=4)
            assert not np.any(ts.manipulated[ts.x_star >= 0.0])

    def test_type1_jump_estimate_near_true_effect(self):
        ts = gen_typed({1: 1.0}, n=100_000, seed=6)
        be = estimate_boundary(ts.data)
        assert be.mu_plus - be.mu_minus == pytest.approx(THETA_TRUE, abs=0.03)

    def test_share_validation(self):
        with pytest.raises(InvalidConfig, match=r"^type shares must sum to 1, got 1.1$"):
            gen_typed({0: 0.5, 2: 0.6}, n=100, seed=0)
        with pytest.raises(InvalidConfig, match=r"^type labels must be 0\.\.4, got \[7\]$"):
            gen_typed({7: 1.0}, n=100, seed=0)
        with pytest.raises(InvalidConfig, match=r"^type_shares must not be empty$"):
            gen_typed({}, n=100, seed=0)

    def test_attempt_prob(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(InvalidConfig, match=rf"^attempt_prob must lie in \[0, 1\], got {bad}$"):
                gen_typed({2: 1.0}, n=100, seed=0, attempt_prob=bad)
        assert not gen_typed({1: 0.5, 4: 0.5}, n=1_000, seed=0, attempt_prob=0.0).manipulated.any()
        always = gen_typed({4: 1.0}, n=1_000, seed=0, attempt_prob=1.0)
        assert always.manipulated.all()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("generate,args", [
    (gen_appendix_d, (0.1, 0.05, 0, 0)),
    (gen_appendix_d, (0.1, 0.05, 10, -1)),
    (gen_appendix_d, (NAN, 0.05, 10, 0)),
    (gen_appendix_d, (0.5, 1e-320, 10, 0)),
    (gen_appendix_d, (0.5, INF, 10, 0)),
    (gen_counterexample_e, (10, -1)),
    (gen_counterexample_e, (10, 0, INF)),
    (gen_counterexample_e, (10, 0, NAN)),
    (gen_typed, ({0: 1.0}, 10, -1)),
    (gen_typed, ({0: NAN}, 10, 0)),
    (gen_typed, ({2: 1.0}, 10, 0, NAN)),
    (oracle_appendix_d, (0.5, INF)),
    (oracle_appendix_d, (0.5, 1e-320)),
    (oracle_appendix_d, (1.0, 0.2)),
])
def test_bad_parameter_raises_before_any_draw(generate, args, monkeypatch):
    def no_draws(*_, **__):
        raise AssertionError("a generator was made before the parameters were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ConfigError):
        generate(*args)


def test_smallest_landing_density_and_largest_noise_stay_finite():
    ts = gen_appendix_d(0.9, 3.6e-307, 2_000, 0)
    assert ts.manipulated.any() and np.isfinite(ts.data.xs).all()
    ts = gen_counterexample_e(2_000, 0, 2.8e306)
    assert np.isfinite(ts.data.ys).all()


class TestVerifyLemmaMoments:
    def test_appendix_d_identities(self):
        ts = gen_appendix_d(0.3, 0.3, 1_000_000, 11)
        report = verify_lemma_moments(ts, window=0.02, point_effect=THETA_TRUE)
        assert report.residuals, "expected applicable identities"
        for name, value in report.residuals.items():
            assert value < 0.02, f"{name} residual {value}"

    def test_type0_collapse(self):
        ts = gen_typed({0: 1.0}, n=1_000_000, seed=5)
        report = verify_lemma_moments(ts, window=0.02, point_effect=THETA_TRUE)
        assert report.estimates["manipulation_fraction"] == 0.0
        for name, value in report.residuals.items():
            assert value < 0.01, f"{name} residual {value}"

    def test_type4_identities(self):
        ts = gen_typed({0: 0.5, 4: 0.5}, n=1_000_000, seed=0)
        report = verify_lemma_moments(ts, window=0.02, point_effect=THETA_TRUE)
        assert "mix_plus_sorting_free" in report.residuals
        assert "collapse_minus" in report.residuals
        for name, value in report.residuals.items():
            assert value < 0.02, f"{name} residual {value}"

    def test_window_means_match_latent_truth_type4(self):
        ts = gen_typed({0: 0.5, 4: 0.5}, n=1_000_000, seed=0)
        x, y = ts.data.xs, ts.data.ys
        mu_minus = y[(x >= -0.02) & (x < 0)].mean()
        keep = ~ts.manipulated & (ts.x_star >= -0.02) & (ts.x_star < 0)
        assert mu_minus == pytest.approx(y[keep].mean(), abs=0.02)


class TestBruteForceTrimming:
    def test_binary_grid_matches_closed_form(self):
        for mu in np.arange(0.1, 0.95, 0.1):
            for tau in np.arange(0.1, 1.05, 0.1):
                tau = min(float(tau), 1.0)
                lo, hi = brute_force_trimming([0.0, 1.0], [1 - mu, mu], tau)
                b_lo, b_hi = binary_sharp_gfuncs(float(mu), tau)
                assert lo == pytest.approx(b_lo, abs=1e-12)
                assert hi == pytest.approx(b_hi, abs=1e-12)

    def test_full_mass_returns_mean(self):
        values = [0.2, 0.5, 0.9]
        probs = [0.25, 0.5, 0.25]
        lo, hi = brute_force_trimming(values, probs, 1.0)
        mean = np.dot(values, probs)
        assert lo == pytest.approx(mean, abs=1e-15)
        assert hi == pytest.approx(mean, abs=1e-15)

    def test_exact_atom_boundary(self):
        lo, hi = brute_force_trimming([0.0, 0.5, 1.0], [1 / 3, 1 / 3, 1 / 3], 1 / 3)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_weighted_empirical(self, rng):
        for _ in range(100):
            k = rng.integers(2, 11)
            values = np.sort(rng.uniform(-2, 3, size=k))
            probs = rng.dirichlet(np.ones(k))
            tau = float(rng.uniform(0.05, 1.0))
            lo_a, hi_a = brute_force_trimming(values, probs, tau)
            lo_b, hi_b = weighted_trimmed_means(values, probs, tau, -2.0, 3.0)
            assert lo_a == pytest.approx(lo_b, abs=1e-9)
            assert hi_a == pytest.approx(hi_b, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_trimming([0.0, 1.0], [0.6, 0.6], 0.5)
        with pytest.raises(ValueError):
            brute_force_trimming([0.0, 1.0], [0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            brute_force_trimming([], [], 0.5)


class TestTypedCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ts = gen_typed({0: 0.4, 2: 0.3, 4: 0.3}, n=500, seed=12)
        path = tmp_path / "sample.csv"
        write_typed_csv(ts, str(path))
        back = ingest(str(path), 0.0, col_d="d", covariates=LATENTS)
        assert np.array_equal(back.xs, ts.data.xs)
        assert np.array_equal(back.ys, ts.data.ys)
        assert np.array_equal(back.d, ts.data.d)
        assert np.array_equal(back.covariates["x_star"], ts.x_star)
        assert np.array_equal(back.covariates["manipulated"], ts.manipulated)
        assert np.array_equal(back.covariates["t_type"], ts.t_type)

    @pytest.mark.parametrize("with_d", [True, False])
    def test_exact_text(self, tmp_path, with_d):
        # floats keep their shortest round-trip repr, ints and bools become
        # 0/1 digits, and without a treatment column d is x >= cutoff
        data = Dataset(
            xs=np.array([0.1 + 0.2, 5e-324, -0.0, 1e300, -1e300]),
            ys=np.array([-0.0, 1e300, 0.1 + 0.2, 5e-324, 2.0]),
            cutoff=0.0,
            d=np.array([0.0, 0.0, 1.0, 0.0, 1.0]) if with_d else None,
        )
        ts = TypedSample(
            data=data,
            x_star=np.array([1e300, -0.0, 5e-324, 0.1 + 0.2, -7.5]),
            manipulated=np.array([True, False, False, True, False]),
            t_type=np.array([0, 1, 2, 3, 4], dtype=np.int8),
        )
        path = tmp_path / "awkward.csv"
        write_typed_csv(ts, str(path))
        d = ("0", "0", "1", "0", "1") if with_d else ("1", "1", "1", "1", "0")
        assert path.read_bytes().decode() == (
            "x,y,d,x_star,manipulated,t_type\r\n"
            f"0.30000000000000004,-0.0,{d[0]},1e+300,1,0\r\n"
            f"5e-324,1e+300,{d[1]},-0.0,0,1\r\n"
            f"-0.0,0.30000000000000004,{d[2]},5e-324,0,2\r\n"
            f"1e+300,5e-324,{d[3]},0.30000000000000004,1,3\r\n"
            f"-1e+300,2.0,{d[4]},-7.5,0,4\r\n"
        )

    def test_missing_latent_columns(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(MissingColumn):
            ingest(str(path), 0.0, col_d="d", covariates=LATENTS)
