import warnings

import numpy as np
import pytest

from mrdd import (
    FitConfig,
    FitSpec,
    KernelKind,
    Side,
    boundary_density,
    density_curve,
    kernel_weight,
    local_poly_fit,
    rot_bandwidth,
)
from mrdd.errors import DataError, DegenerateSupport, InsufficientData, InvalidConfig, SingularDesign
from mrdd.localfit import DENSITY_FLOOR


class TestKernelWeight:
    def test_triangular_peak(self):
        assert kernel_weight(0.0, KernelKind.TRIANGULAR) == 1.0

    def test_triangular_halfway(self):
        assert kernel_weight(0.5, KernelKind.TRIANGULAR) == 0.5

    def test_uniform_outside_support(self):
        assert kernel_weight(1.2, KernelKind.UNIFORM) == 0.0

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_symmetric_nonnegative_compact(self, kernel):
        us = np.linspace(-2.5, 2.5, 201)
        w = kernel_weight(us, kernel)
        assert np.all(w >= 0)
        assert np.allclose(w, kernel_weight(-us, kernel))
        assert np.all(w[np.abs(us) > 1] == 0)

    def test_array_shape(self):
        out = kernel_weight(np.zeros((3, 2)), KernelKind.EPANECHNIKOV)
        assert out.shape == (3, 2)


class TestLocalPolyFit:
    def test_exact_quadratic_recovery(self, rng):
        xs = rng.uniform(-1, 1, 200)
        ys = 1.0 + 2.0 * xs + 3.0 * xs**2
        res = local_poly_fit(xs, ys, 0.0, FitSpec(order=2, bandwidth=2.0))
        assert np.max(np.abs(res.coefficients - [1.0, 2.0, 3.0])) < 1e-9
        assert res.residual_scale < 1e-9

    def test_exact_recovery_away_from_origin(self, rng):
        xs = rng.uniform(4, 6, 300)
        ys = -2.0 + 0.5 * xs
        res = local_poly_fit(xs, ys, 5.0, FitSpec(order=1, bandwidth=1.5))
        # coefficients are in (x - eval) powers: level at 5 is 0.5, slope 0.5
        assert abs(res.coefficients[0] - 0.5) < 1e-9
        assert abs(res.coefficients[1] - 0.5) < 1e-9

    def test_order_zero_uniform_is_window_mean(self, rng):
        xs = rng.uniform(-3, 3, 500)
        ys = rng.normal(size=500)
        h = 1.0
        res = local_poly_fit(xs, ys, 0.0, FitSpec(order=0, bandwidth=h, kernel=KernelKind.UNIFORM))
        mask = np.abs(xs) <= h
        assert abs(res.coefficients[0] - ys[mask].mean()) < 1e-12
        assert res.effective_n == mask.sum()

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            local_poly_fit([0.1, 0.2], [1.0, 2.0], 0.0, FitSpec(order=2, bandwidth=1.0))

    def test_duplicate_x_singular(self):
        with pytest.raises(SingularDesign):
            local_poly_fit([0.3] * 4, [1.0, 2.0, 3.0, 0.5], 0.0, FitSpec(order=1, bandwidth=1.0))

    @pytest.mark.parametrize("x,y", [([0.1, 0.2, 0.3], [1.0, 2.0]), ([[0.1, 0.2]], [[1.0, 2.0]])])
    def test_arrays_must_be_1d_and_equal_length(self, x, y):
        with pytest.raises(InvalidConfig):
            local_poly_fit(x, y, 0.0, FitSpec(order=0, bandwidth=1.0))

    def test_side_restriction(self, rng):
        xs = rng.uniform(-1, 1, 400)
        ys = np.where(xs >= 0, 5.0, -5.0)
        right = local_poly_fit(xs, ys, 0.0, FitSpec(order=0, bandwidth=1.0, side=Side.RIGHT))
        left = local_poly_fit(xs, ys, 0.0, FitSpec(order=0, bandwidth=1.0, side=Side.LEFT))
        assert abs(right.coefficients[0] - 5.0) < 1e-12
        assert abs(left.coefficients[0] + 5.0) < 1e-12

    def test_bandwidth_increase_keeps_intercept_on_polynomial(self, rng):
        xs = rng.uniform(-2, 2, 300)
        ys = 0.5 - 1.5 * xs
        intercepts = [
            local_poly_fit(xs, ys, 0.0, FitSpec(order=1, bandwidth=h)).coefficients[0]
            for h in (0.5, 1.0, 2.0, 4.0)
        ]
        assert np.ptp(intercepts) < 1e-10

    def test_order_validation(self):
        with pytest.raises(InvalidConfig):
            FitSpec(order=5, bandwidth=1.0)
        with pytest.raises(InvalidConfig):
            FitSpec(order=1, bandwidth=0.0)

    def test_order_cap_is_two(self):
        FitSpec(order=2, bandwidth=1.0)
        FitConfig(order=2)
        with pytest.raises(InvalidConfig, match=r"\[0, 2\]"):
            FitSpec(order=3, bandwidth=1.0)
        with pytest.raises(InvalidConfig, match=r"\[0, 2\]"):
            FitConfig(order=3)


class TestBoundaryDensity:
    def test_uniform_interior(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(0, 1, 100_000)
        h = rot_bandwidth(xs, Side.INTERIOR, 0.5)
        d, clipped = boundary_density(xs, 0.5, FitSpec(order=1, bandwidth=h, side=Side.INTERIOR))
        assert abs(d - 1.0) < 0.05
        assert clipped is False

    def test_exponential_right_boundary(self):
        rng = np.random.default_rng(7)
        xs = rng.exponential(scale=0.5, size=100_000)
        h = rot_bandwidth(xs, Side.RIGHT, 0.0)
        d, _ = boundary_density(xs, 0.0, FitSpec(order=1, bandwidth=h, side=Side.RIGHT))
        assert abs(d - 2.0) < 0.1

    def test_point_mass_degenerate(self):
        xs = np.full(100, 3.0)
        with pytest.raises(DegenerateSupport):
            boundary_density(xs, 3.0, FitSpec(order=1, bandwidth=1.0, side=Side.RIGHT))

    def test_mostly_duplicates_degenerate(self, rng):
        xs = np.concatenate([np.full(80, 0.5), rng.uniform(0, 1, 20)])
        with pytest.raises(DegenerateSupport):
            boundary_density(xs, 0.0, FitSpec(order=1, bandwidth=1.0, side=Side.RIGHT))

    def test_too_few_distinct(self):
        xs = np.array([0.1, 0.2])
        with pytest.raises(InsufficientData):
            boundary_density(xs, 0.0, FitSpec(order=1, bandwidth=1.0, side=Side.RIGHT))

    def test_clipping_floor_and_flag(self):
        # a sparse left tail before a steep cluster makes the fitted CDF
        # slope at the boundary negative; the flag replaces a warning
        xs = np.concatenate([[0.1, 0.6], np.linspace(0.88, 0.92, 98)])
        spec = FitSpec(order=1, bandwidth=1.0, side=Side.RIGHT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert boundary_density(xs, 0.0, spec) == (DENSITY_FLOOR, True)

    def test_integrates_to_side_mass(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=100_000)
        h = rot_bandwidth(xs, Side.RIGHT, 0.0)
        lo, hi = 0.0, 2.5
        grid = np.linspace(lo, hi, 41)
        dens = []
        for t in grid:
            side = Side.RIGHT if t - h < 0 else Side.INTERIOR
            dens.append(boundary_density(xs, t, FitSpec(order=1, bandwidth=h, side=side))[0])
        integral = np.trapezoid(dens, grid)
        freq = np.mean((xs >= lo) & (xs <= hi))
        assert abs(integral - freq) < 0.05


def curve_sample():
    """Continuous x plus ties on a dyadic grid, a discrete patch, a cluster and a sparse tail.

    Grid values are multiples of 1/64, so with the dyadic bandwidths and
    evaluation points below, window edges p - h and p + h land exactly on
    sample values.
    """
    rng = np.random.default_rng(5)
    return np.concatenate([
        rng.normal(0.0, 1.0, 3000),
        rng.integers(-96, 97, 300) / 64,
        np.full(150, 2.0),
        # a steep cluster past a sparse gap: the fit at 4.0 clips
        [4.025, 4.15],
        np.linspace(4.22, 4.23, 98),
        [6.0, 6.5, 7.25],
    ])


class TestDensityCurve:
    POINTS = np.concatenate([np.arange(-16, 17) / 8, [2.125, 6.25, 7.0, 10.0, 4.0]])

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_point_by_point(self, order, kernel):
        xs = curve_sample()
        points, specs = [], []
        for i, point in enumerate(self.POINTS):
            for side in Side:
                points.append(point)
                specs.append(FitSpec(order, 0.25 if i % 2 else 0.5, kernel, side))
        ref_dens, ref_clipped, raised = [], [], set()
        for point, spec in zip(points, specs):
            try:
                dens, clipped = boundary_density(xs, point, spec)
            except DataError as err:
                dens, clipped = np.nan, False
                raised.add(type(err))
            ref_dens.append(dens)
            ref_clipped.append(clipped)
        dens, clipped = density_curve(xs, points, specs)
        assert raised == {DegenerateSupport, InsufficientData}
        assert np.array_equal(dens, ref_dens, equal_nan=True)
        assert np.array_equal(clipped, ref_clipped)
        assert dens.dtype == float and clipped.dtype == bool

    def test_one_spec_per_point(self):
        with pytest.raises(InvalidConfig):
            density_curve(curve_sample(), [0.0, 1.0], [FitSpec(order=1, bandwidth=0.5)])


class TestRotBandwidth:
    def test_single_point_side(self):
        xs = np.array([-1.0, 0.5])
        with pytest.raises(InsufficientData):
            rot_bandwidth(xs, Side.LEFT, 0.0)

    def test_scale_equivariance(self, rng):
        xs = rng.normal(size=1000)
        h = rot_bandwidth(xs, Side.RIGHT, 0.0)
        for k in (0.1, 3.0, 250.0):
            assert rot_bandwidth(k * xs, Side.RIGHT, 0.0) == pytest.approx(k * h, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(99)
        xs = rng.standard_normal(10_000)
        side = xs[xs >= 0]
        expected = 1.06 * np.std(side, ddof=1) * side.size ** (-0.2)
        assert rot_bandwidth(xs, Side.RIGHT, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_same_bits_as_direct_formula_at_every_scale(self):
        rng = np.random.default_rng(5)
        for exponent in range(-100, 101, 10):
            xs = rng.standard_normal(500) * 10.0**exponent + rng.uniform(-2, 2) * 10.0**exponent
            side = xs[xs >= 0]
            expected = max(1.06 * float(np.std(side, ddof=1)) * side.size ** (-0.2), 1e-8)
            assert rot_bandwidth(xs, Side.RIGHT, 0.0) == expected

    def test_no_overflow_near_the_float_limit(self):
        xs = np.array([-5.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0]) * 1e200
        rng = np.random.default_rng(6)
        wide = rng.standard_normal(1000) * 2.0**1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = rot_bandwidth(xs, Side.RIGHT, 0.0)
            assert np.isfinite(h) and h > 1e200
            # a power-of-two scale moves the bandwidth by exactly that factor
            assert rot_bandwidth(wide, Side.LEFT, 0.0) == rot_bandwidth(wide * 2.0**-1000, Side.LEFT, 0.0) * 2.0**1000
