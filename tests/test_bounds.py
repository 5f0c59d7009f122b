import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdd import (
    BoundsStatus,
    TypeAssumption,
    clamp_interval,
    crude_bounds,
    fuzzy_bounds,
    oracle_appendix_d,
    sharp_type2_bounds,
)
from mrdd.bounds import crude_interval
from mrdd.errors import EmptyWindow, InvalidConfig, InvalidOutcomeRange
from oracles import binary_sharp_gfuncs, brute_force_trimming, weighted_trimmed_means


def binary_window(mu_plus, y_low=0.0, y_high=1.0):
    """Two-atom window over {y_low, y_high} whose weighted mean is mu_plus,
    as (weights, ys)."""
    w_high = (mu_plus - y_low) / (y_high - y_low)
    return np.array([1.0 - w_high, w_high]), np.array([y_low, y_high])


# strategy for valid scalar bound inputs: y_low < y_high, means inside range
def bound_tuples(min_r=0.05, max_r=1.0):
    return st.tuples(
        st.floats(0.0, 1.0),          # mu_plus position within range
        st.floats(0.0, 1.0),          # mu_minus position within range
        st.floats(min_r, max_r),      # r
        st.floats(-5.0, 5.0),         # y_low
        st.floats(0.01, 10.0),        # range width
    ).map(
        lambda t: (
            t[3] + t[0] * t[4],       # mu_plus
            t[3] + t[1] * t[4],       # mu_minus
            t[2],
            t[3],
            t[3] + t[4],
        )
    )


class TestCrudeBounds:
    def test_type2_oracle_row1(self):
        row = oracle_appendix_d(0.1, 0.05)
        res = crude_bounds(row.mu_plus, row.mu_minus, row.r, 0.0, 1.0, TypeAssumption.TYPE2)
        assert res.lower == pytest.approx(0.060, abs=0.002)
        assert res.upper == pytest.approx(0.185, abs=0.002)
        assert res.status is BoundsStatus.INFORMATIVE

    def test_type2_point_identified_at_r_one(self):
        res = crude_bounds(0.5, 0.3, 1.0, 0.0, 1.0, TypeAssumption.TYPE2)
        assert res.lower == pytest.approx(0.2, abs=1e-12)
        assert res.upper == pytest.approx(0.2, abs=1e-12)

    def test_type2_hand_computed(self):
        # both branches evaluated by hand at r=0.8, mu+=0.6, mu-=0.5:
        # lower branches (0, 0), upper branches (0.2, 0.25)
        res = crude_bounds(0.6, 0.5, 0.8, 0.0, 1.0, TypeAssumption.TYPE2)
        assert res.lower == pytest.approx(0.0, abs=1e-12)
        assert res.upper == pytest.approx(0.25, abs=1e-12)

    def test_type3_hand_computed_and_width(self):
        res = crude_bounds(0.6, 0.5, 0.8, 0.0, 1.0, TypeAssumption.TYPE3)
        assert res.lower == pytest.approx(0.0, abs=1e-12)
        assert res.upper == pytest.approx(0.2, abs=1e-12)
        assert res.upper - res.lower == pytest.approx((1 - 0.8) * 1.0, abs=1e-12)

    def test_type3_point_at_r_one(self):
        res = crude_bounds(0.45, 0.4, 1.0, -1.0, 1.0, TypeAssumption.TYPE3)
        assert res.lower == pytest.approx(0.05, abs=1e-12)
        assert res.upper == pytest.approx(0.05, abs=1e-12)

    def test_type3_lower_is_first_type2_branch(self):
        l1 = (0.7 - 1.0) - 0.6 * (0.2 - 1.0)
        assert crude_bounds(0.7, 0.2, 0.6, 0.0, 1.0, TypeAssumption.TYPE3).lower == pytest.approx(l1, abs=1e-12)

    def test_type4_hand_computed_and_width(self):
        res = crude_bounds(0.6, 0.5, 0.8, 0.0, 1.0, TypeAssumption.TYPE4)
        assert res.lower == pytest.approx(0.0, abs=1e-12)
        assert res.upper == pytest.approx(0.25, abs=1e-12)
        assert res.upper - res.lower == pytest.approx((1 / 0.8 - 1) * 1.0, abs=1e-12)

    def test_type4_width_matches_published_set(self):
        # r = 0.792 on a unit range gives width 0.2626, matching the
        # published interval [0.363, 0.627] of width 0.264 within rounding
        res = crude_bounds(0.5, 0.4, 0.792, 0.0, 1.0, TypeAssumption.TYPE4)
        width = res.upper - res.lower
        assert width == pytest.approx(1 / 0.792 - 1, abs=1e-12)
        assert width == pytest.approx(0.627 - 0.363, abs=0.005)

    def test_mixed_equals_type2(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            mu_p, mu_m = rng.uniform(0, 1, 2)
            r = rng.uniform(0.1, 1.0)
            a = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
            b = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.MIXED)
            assert a.lower == b.lower and a.upper == b.upper
            assert b.assumption is TypeAssumption.MIXED

    def test_mixed_oracle_row2(self):
        row = oracle_appendix_d(0.1, 0.3)
        res = crude_bounds(row.mu_plus, row.mu_minus, row.r, 0.0, 1.0, TypeAssumption.MIXED)
        assert res.lower == pytest.approx(0.032, abs=0.002)
        assert res.upper == pytest.approx(0.190, abs=0.002)

    def test_refuted_beyond_tolerance(self):
        res = crude_bounds(0.5, 0.5, 1.05, 0.0, 1.0, TypeAssumption.TYPE2)
        assert res.status is BoundsStatus.REFUTED
        assert res.note is not None

    def test_r_within_tolerance_clamped_to_point(self):
        res = crude_bounds(0.5, 0.4, 1.01, 0.0, 1.0, TypeAssumption.TYPE3)
        assert res.status is BoundsStatus.INFORMATIVE
        assert res.lower <= res.upper

    def test_invalid_range(self):
        with pytest.raises(InvalidOutcomeRange):
            crude_bounds(0.5, 0.5, 0.9, 1.0, 0.0, TypeAssumption.TYPE2)

    @pytest.mark.parametrize("y_high, r, error, message", [
        (np.inf, 0.9, InvalidOutcomeRange, "outcome range must be finite"),
        (1.0, 0.0, ValueError, "density ratio must be positive, got 0.0"),
    ], ids=["infinite-range", "zero-ratio"])
    def test_crude_interval_rejects(self, y_high, r, error, message):
        with pytest.raises(error) as excinfo:
            crude_interval(0.5, 0.5, r, 0.0, y_high, TypeAssumption.TYPE2)
        assert str(excinfo.value) == message

    def test_missing_range(self):
        # an undeclared range is a labelled error, not a TypeError
        for y_low, y_high in ((None, None), (0.0, None), (None, 1.0)):
            with pytest.raises(InvalidOutcomeRange):
                crude_bounds(0.5, 0.5, 0.9, y_low, y_high, TypeAssumption.TYPE2)

    def test_clamp_flag(self):
        # r = 0.1 blows the type-4 interval beyond the logical range
        res = crude_bounds(0.9, 0.1, 0.1, 0.0, 1.0, TypeAssumption.TYPE4)
        assert res.upper > 1.0
        lower, upper, clamped = clamp_interval(res.lower, res.upper, 0.0, 1.0)
        assert clamped
        assert -1.0 <= lower <= upper <= 1.0
        assert clamp_interval(lower, upper, 0.0, 1.0) == (lower, upper, False)


class TestStructuralIdentities:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bound_tuples())
    def test_type2_is_branchwise_envelope(self, tup):
        mu_p, mu_m, r, y_lo, y_hi = tup
        t2 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE2)
        t3 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE3)
        t4 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE4)
        assert t2.lower == pytest.approx(min(t3.lower, t4.lower), abs=1e-10)
        assert t2.upper == pytest.approx(max(t3.upper, t4.upper), abs=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bound_tuples())
    def test_width_identities(self, tup):
        mu_p, mu_m, r, y_lo, y_hi = tup
        t3 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE3)
        t4 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE4)
        assert t3.upper - t3.lower == pytest.approx((1 - r) * (y_hi - y_lo), abs=1e-9)
        assert t4.upper - t4.lower == pytest.approx((1 / r - 1) * (y_hi - y_lo), abs=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bound_tuples(min_r=0.2, max_r=0.98))
    def test_monotone_in_r(self, tup):
        mu_p, mu_m, r, y_lo, y_hi = tup
        smaller = 0.5 * r
        for t in (TypeAssumption.TYPE2, TypeAssumption.TYPE3, TypeAssumption.TYPE4):
            wide = crude_bounds(mu_p, mu_m, smaller, y_lo, y_hi, t)
            narrow = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, t)
            assert wide.upper - wide.lower >= narrow.upper - narrow.lower - 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bound_tuples(min_r=1.0, max_r=1.0))
    def test_point_estimate_contained_at_r_one(self, tup):
        mu_p, mu_m, _, y_lo, y_hi = tup
        point = mu_p - mu_m
        for t in TypeAssumption:
            res = crude_bounds(mu_p, mu_m, 1.0, y_lo, y_hi, t)
            assert res.lower - 1e-9 <= point <= res.upper + 1e-9


class TestBinarySharpGfuncs:
    def test_wide_trim(self):
        # (0.5 - 0.8)/0.2 < 0 and 0.5/0.2 > 1, so the pair saturates
        assert binary_sharp_gfuncs(0.5, 0.2) == (0.0, 1.0)

    def test_full_mass_returns_mean(self):
        assert binary_sharp_gfuncs(0.5, 1.0) == (0.5, 0.5)

    def test_zero_tau_convention(self):
        assert binary_sharp_gfuncs(0.5, 0.0) == (0.0, 1.0)

    def test_hand_computed_interior(self):
        g_lo, g_hi = binary_sharp_gfuncs(0.5, 0.6)
        assert g_lo == pytest.approx(1 / 6, abs=1e-12)
        assert g_hi == pytest.approx(5 / 6, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(InvalidConfig):
            binary_sharp_gfuncs(1.5, 0.5)
        with pytest.raises(InvalidConfig):
            binary_sharp_gfuncs(0.5, -0.1)


class TestWeightedTrimmedMeans:
    def test_matches_binary_closed_form(self):
        for mu in np.linspace(0.1, 0.9, 9):
            ws, ys = binary_window(mu)
            for tau in np.linspace(0.1, 1.0, 10):
                g_lo, g_hi = weighted_trimmed_means(ys, ws, float(tau), 0.0, 1.0)
                b_lo, b_hi = binary_sharp_gfuncs(float(mu), float(tau))
                assert g_lo == pytest.approx(b_lo, abs=1e-12)
                assert g_hi == pytest.approx(b_hi, abs=1e-12)

    def test_trimming_mean_identity(self, rng):
        # top-tau mass mean and bottom-(1-tau) mass mean recombine to the mean
        ys = rng.normal(size=300)
        ws = rng.uniform(0.1, 2.0, size=300)
        mean = np.average(ys, weights=ws)
        for tau in (0.1, 0.37, 0.5, 0.93):
            _, g_hi = weighted_trimmed_means(ys, ws, tau, -10, 10)
            g_lo_c, _ = weighted_trimmed_means(ys, ws, 1 - tau, -10, 10)
            assert tau * g_hi + (1 - tau) * g_lo_c == pytest.approx(mean, abs=1e-9)

    def test_monotone_in_tau_and_ordered(self, rng):
        # widening the trimmed slice pulls both extreme means toward the
        # overall mean: the lower one rises, the upper one falls (see the
        # binary closed forms: max{0, (mu - (1 - tau))/tau} rises in tau)
        ys = rng.uniform(-3, 5, size=120)
        ws = rng.uniform(0.5, 1.5, size=120)
        taus = np.linspace(0.05, 1.0, 40)
        g_lo, g_hi = weighted_trimmed_means(ys, ws, taus, -3.5, 5.5)
        assert np.all(np.diff(g_lo) >= -1e-12)  # nondecreasing in tau
        assert np.all(np.diff(g_hi) <= 1e-12)   # nonincreasing in tau
        assert np.all(g_lo <= g_hi + 1e-12)
        assert np.all(g_lo >= -3.5) and np.all(g_hi <= 5.5)

    def test_zero_weight_window_rejected(self):
        with pytest.raises(EmptyWindow):
            weighted_trimmed_means([1.0], [0.0], 0.5, 0, 1)


class TestSharpBounds:
    def test_oracle_row4(self):
        row = oracle_appendix_d(0.3, 0.3)
        res = sharp_type2_bounds(*binary_window(row.mu_plus), row.mu_plus, row.mu_minus, row.r, 0.0, 1.0)
        assert res.lower == pytest.approx(-0.254, abs=0.003)
        assert res.upper == pytest.approx(0.303, abs=0.003)
        crude = crude_bounds(row.mu_plus, row.mu_minus, row.r, 0.0, 1.0, TypeAssumption.TYPE2)
        assert res.lower >= crude.lower - 1e-9
        assert res.upper <= crude.upper + 1e-9

    def test_corollary_equality_region(self):
        # binary outcome with mu_plus in [1-r, r]: sharp equals crude exactly
        for r in (0.5, 0.7, 0.9):
            for mu in np.linspace(1 - r, r, 9):
                sharp = sharp_type2_bounds(*binary_window(float(mu)), float(mu), 0.4, r, 0.0, 1.0)
                crude = crude_bounds(float(mu), 0.4, r, 0.0, 1.0, TypeAssumption.TYPE2)
                assert sharp.lower == pytest.approx(crude.lower, abs=1e-9)
                assert sharp.upper == pytest.approx(crude.upper, abs=1e-9)

    def test_exact_scan_against_fine_grid(self, rng):
        # the exact extremes are never narrower than a dense scan of the
        # per-z ends over z in [f_minus, f_plus], and stay inside the crude set
        def grid_set(ws, ys, mu_p, mu_m, r, f_plus, n):
            f_minus = min(r * f_plus, f_plus)
            z = np.linspace(f_minus, f_plus, n)
            tau = 1.0 - z / f_plus
            tau[-1] = 0.0
            g_low, g_high = weighted_trimmed_means(ys, ws, tau, 0.0, 1.0)
            theta_low = (f_plus / z) * (mu_p - g_high) - (f_minus / z) * (mu_m - 1.0) + (g_high - 1.0)
            theta_high = (f_plus / z) * (mu_p - g_low) - (f_minus / z) * mu_m + g_low
            return theta_low.min(), theta_high.max()

        for _ in range(300):
            m = int(rng.integers(2, 40))
            ys = rng.beta(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), m)
            ws = rng.uniform(0.05, 1.0, m)
            # an order-1 intercept differs from the window mean
            mu_p = float(np.clip(np.average(ys, weights=ws) + rng.uniform(-0.2, 0.2), 0.0, 1.0))
            mu_m, r, f_plus = rng.uniform(0.0, 1.0), rng.uniform(0.3, 1.0), rng.uniform(0.2, 3.0)
            sharp = sharp_type2_bounds(ws, ys, mu_p, mu_m, r, 0.0, 1.0)
            for n in (200_001, 201):
                grid_lo, grid_hi = grid_set(ws, ys, mu_p, mu_m, r, f_plus, n)
                assert sharp.lower <= grid_lo + 1e-12
                assert sharp.upper >= grid_hi - 1e-12
            crude = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
            assert crude.lower - 1e-12 <= sharp.lower <= sharp.upper <= crude.upper + 1e-12

    def test_trimming_matches_brute_force_scan(self, rng):
        # the per-q ends with L(q) and U(q) from the greedy oracle, over a dense
        # q grid on [r, 1] plus the masses below and above each atom, where the
        # exact extremes lie: the sharp set is never narrower and attains them
        for _ in range(100):
            m = int(rng.integers(1, 12))
            ys = rng.choice([0.0, 0.25, 0.5, 1.0], m)
            probs = rng.uniform(0.05, 1.0, m)
            probs /= probs.sum()
            mu_p = float(np.clip(probs @ ys + rng.uniform(-0.2, 0.2), 0.0, 1.0))
            r = float(rng.uniform(0.2, 1.0))
            mu_m = float(rng.uniform(0.0, 1.0))
            sharp = sharp_type2_bounds(probs, ys, mu_p, mu_m, r, 0.0, 1.0)
            cum = np.cumsum(probs[np.argsort(ys, kind="stable")])
            kinks = np.concatenate([cum, 1.0 - cum])
            shift = mu_p - probs @ ys
            theta_low, theta_high = [], []
            for q in np.concatenate([np.linspace(r, 1.0, 401), kinks[(r < kinks) & (kinks < 1.0)]]):
                g_low, g_high = brute_force_trimming(ys, probs, float(q))
                theta_low.append((shift + q * g_low - r * (mu_m - 1.0)) / q - 1.0)
                theta_high.append((shift + q * g_high - r * mu_m) / q)
            assert sharp.lower <= min(theta_low) + 1e-12
            assert sharp.upper >= max(theta_high) - 1e-12
            assert sharp.lower == pytest.approx(min(theta_low), abs=1e-9)
            assert sharp.upper == pytest.approx(max(theta_high), abs=1e-9)

    def test_sharp_within_crude_random(self, rng):
        for _ in range(300):
            mu_p = rng.uniform(0.05, 0.95)
            mu_m = rng.uniform(0.0, 1.0)
            r = rng.uniform(0.2, 1.0)
            sharp = sharp_type2_bounds(*binary_window(mu_p), mu_p, mu_m, r, 0.0, 1.0)
            crude = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
            assert sharp.lower >= crude.lower - 1e-9
            assert sharp.upper <= crude.upper + 1e-9
            assert sharp.lower <= sharp.upper + 1e-9

    def test_continuous_window_sharp_within_crude(self, rng):
        ys = rng.uniform(0, 1, 500)
        ws = rng.uniform(0.2, 1.0, 500)
        mu_p = float(np.average(ys, weights=ws))
        sharp = sharp_type2_bounds(ws, ys, mu_p, 0.35, 0.6, 0.0, 1.0)
        crude = crude_bounds(mu_p, 0.35, 0.6, 0.0, 1.0, TypeAssumption.TYPE2)
        assert crude.lower - 1e-9 <= sharp.lower <= sharp.upper <= crude.upper + 1e-9

    def test_errors(self):
        with pytest.raises(EmptyWindow):
            sharp_type2_bounds(np.empty(0), np.empty(0), 0.5, 0.5, 0.9, 0.0, 1.0)
        with pytest.raises(EmptyWindow):
            sharp_type2_bounds([1.0, 1.0], [0.0], 0.5, 0.5, 0.9, 0.0, 1.0)
        with pytest.raises(EmptyWindow):
            sharp_type2_bounds([[1.0, 0.0]], [[1.0, 0.0]], 0.5, 0.5, 0.9, 0.0, 1.0)
        with pytest.raises(EmptyWindow):
            sharp_type2_bounds([0.0, 0.0], [0.0, 1.0], 0.5, 0.5, 0.9, 0.0, 1.0)
        with pytest.raises(InvalidOutcomeRange):
            sharp_type2_bounds(*binary_window(0.5), 0.5, 0.5, 0.9, None, None)

    def test_refuted_when_r_large(self):
        res = sharp_type2_bounds(*binary_window(0.5), 0.5, 0.5, 1.2, 0.0, 1.0)
        assert res.status is BoundsStatus.REFUTED


class TestFuzzyBounds:
    def test_sharp_design_reduces_to_type2(self, rng):
        for _ in range(100):
            mu_p, mu_m = rng.uniform(0, 1, 2)
            r = rng.uniform(0.1, 1.5)  # above one, both sets evaluate r at one
            rng.uniform(0.2, 3.0)  # f+: the bounds read only r, but the draw keeps the stream
            fz = fuzzy_bounds(mu_p, mu_m, r, d_plus=1.0, d_minus=0.0, y_low=0.0, y_high=1.0)
            t2 = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
            assert fz.lower == pytest.approx(t2.lower, abs=1e-12)
            assert fz.upper == pytest.approx(t2.upper, abs=1e-12)

    def test_point_identified_ratio(self):
        fz = fuzzy_bounds(0.55, 0.5, 1.0, d_plus=0.6, d_minus=0.4, y_low=0.0, y_high=1.0)
        assert fz.lower == pytest.approx(0.25, abs=1e-12)
        assert fz.upper == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_without_first_stage(self):
        fz = fuzzy_bounds(0.55, 0.5, 1.0, d_plus=0.5, d_minus=0.5, y_low=0.0, y_high=1.0)
        assert fz.status is BoundsStatus.DEGENERATE

    def test_d_domain_validated(self):
        with pytest.raises(InvalidConfig):
            fuzzy_bounds(0.55, 0.5, 1.0, d_plus=1.2, d_minus=0.0, y_low=0.0, y_high=1.0)
        with pytest.raises(InvalidConfig):
            fuzzy_bounds(0.55, 0.5, 1.0, d_plus=1.0, d_minus=-0.1, y_low=0.0, y_high=1.0)
