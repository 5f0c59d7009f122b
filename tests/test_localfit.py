import warnings
from fractions import Fraction

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
from mrdd import localfit
from mrdd.boundary import _moment_sums
from mrdd.localfit import DENSITY_FLOOR, MIN_BANDWIDTH, density_window, sample_sd
from oracles import lstsq_level


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

    def test_exact_recovery_away_from_origin(self, rng):
        xs = rng.uniform(4, 6, 300)
        ys = -2.0 + 0.5 * xs
        res = local_poly_fit(xs, ys, 5.0, FitSpec(order=1, bandwidth=1.5))
        # coefficients are in (x - eval) powers: level at 5 is 0.5, slope 0.5
        assert abs(res.coefficients[0] - 0.5) < 1e-9
        assert abs(res.coefficients[1] - 0.5) < 1e-9

    def test_huge_bandwidth_quadratic_no_overflow(self, rng):
        # h**2 overflows a float, the x-scaled coefficients do not
        xs = rng.uniform(-1e200, 1e200, 200)
        ys = 1.0 + 2e-200 * xs
        res = local_poly_fit(xs, ys, 0.0, FitSpec(order=2, bandwidth=2e200))
        assert abs(res.coefficients[0] - 1.0) < 1e-9
        assert abs(res.coefficients[1] / 2e-200 - 1.0) < 1e-9
        assert np.isfinite(res.coefficients).all()

    def test_order_zero_uniform_is_window_mean(self, rng):
        xs = rng.uniform(-3, 3, 500)
        ys = rng.normal(size=500)
        h = 1.0
        res = local_poly_fit(xs, ys, 0.0, FitSpec(order=0, bandwidth=h, kernel=KernelKind.UNIFORM))
        mask = np.abs(xs) <= h
        assert abs(res.coefficients[0] - ys[mask].mean()) < 1e-12
        assert res.effective_n == mask.sum()

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("side", list(Side))
    def test_moment_equations_match_least_squares(self, rng, order, kernel, side):
        xs = rng.normal(0.3, 1.0, 2000)
        ys = np.sin(3.0 * xs) + rng.normal(size=xs.size)
        spec = FitSpec(order, 0.7, kernel, side)
        level = local_poly_fit(xs, ys, 0.25, spec).coefficients[0]
        assert level == pytest.approx(lstsq_level(xs, ys, 0.25, spec), rel=1e-12, abs=1e-14)

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


    def test_equal_scaled_distances_raise_singular_design(self):
        # two values whose distances to the point round to one u: the normal
        # equations are exactly singular, and no LinAlgError escapes
        xs = np.array([np.nextafter(1.0, 0.0), 1.0])
        h = 1.8132702392002724
        assert xs[0] / h == xs[1] / h
        for kernel in KernelKind:
            spec = FitSpec(0, h, kernel, Side.RIGHT)
            with pytest.raises(SingularDesign):
                boundary_density(xs, 0.0, spec)
            dens, clipped = density_curve(xs, [0.0], [spec])
            assert np.isnan(dens[0]) and not clipped[0]

    def test_zero_weight_window_edges_raise_singular_design(self):
        # the triangular kernel gives the window's end values no weight
        xs = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(SingularDesign):
            boundary_density(xs, 0.0, FitSpec(0, 1.0, KernelKind.TRIANGULAR, Side.INTERIOR))
        assert boundary_density(xs, 0.0, FitSpec(0, 1.0, KernelKind.UNIFORM, Side.INTERIOR))[0] > 0


def mixed_specs():
    """Points over ``curve_sample`` with every side and a mix of orders, kernels and bandwidths."""
    points, specs = [], []
    kernels = list(KernelKind)
    for i, point in enumerate(TestDensityCurve.POINTS):
        for j, side in enumerate(Side):
            points.append(point)
            specs.append(FitSpec((i + j) % 3, (0.25, 0.5, 1.0)[i % 3], kernels[(i + 2 * j) % 3], side))
    return np.array(points), specs


def disjoint_specs():
    """Two groups of points over ``curve_sample``, each with its own bandwidth,
    order and kernel, whose windows reach disjoint blocks of the sorted rows."""
    low, high = np.linspace(-2.0, -1.0, 40), np.linspace(1.0, 2.0, 40)
    sides = list(Side)
    specs = [FitSpec(1, 0.25, KernelKind.UNIFORM, sides[i % 3]) for i in range(low.size)]
    specs += [FitSpec(2, 0.5, KernelKind.EPANECHNIKOV, sides[i % 3]) for i in range(high.size)]
    x = np.sort(curve_sample())
    assert np.searchsorted(x, -1.0 + 0.25) // localfit._BLOCK < np.searchsorted(x, 1.0 - 0.5) // localfit._BLOCK
    return np.concatenate([low, high]), specs


class TestDensityCurveProperties:
    def test_value_does_not_depend_on_the_other_points(self, monkeypatch):
        xs = curve_sample()
        for points, specs in (mixed_specs(), disjoint_specs()):
            dens, clipped = density_curve(xs, points, specs)
            assert np.isfinite(dens).sum() > 50
            for i in range(points.size):
                alone = density_curve(xs, points[i : i + 1], specs[i : i + 1])
                assert np.array_equal(alone[0], dens[i : i + 1], equal_nan=True)
                assert alone[1][0] == clipped[i]
            perm = np.random.default_rng(3).permutation(points.size)
            shuffled = density_curve(xs, points[perm], [specs[i] for i in perm])
            assert np.array_equal(shuffled[0], dens[perm], equal_nan=True)
            assert np.array_equal(shuffled[1], clipped[perm])
            half = points.size // 2
            split = [density_curve(xs, points[a:b], specs[a:b])[0] for a, b in ((0, half), (half, None))]
            assert np.array_equal(np.concatenate(split), dens, equal_nan=True)
            # one point per batch of fits
            with monkeypatch.context() as patch:
                patch.setattr(localfit, "_BATCH_BYTES", 8)
                assert np.array_equal(density_curve(xs, points, specs)[0], dens, equal_nan=True)

    def test_power_of_two_scaling_is_exact(self):
        xs = curve_sample()
        points, specs = mixed_specs()
        dens, clipped = density_curve(xs, points, specs)
        compared = 0
        for k in range(-40, 41):
            scale = 2.0**k
            scaled_specs = [FitSpec(s.order, s.bandwidth * scale, s.kernel, s.side) for s in specs]
            dens_k, clipped_k = density_curve(xs * scale, points * scale, scaled_specs)
            assert np.array_equal(np.isnan(dens_k), np.isnan(dens))
            # the floor is absolute, so only points above it at both scales compare
            both = ~np.isnan(dens) & ~clipped & ~clipped_k
            assert np.array_equal(dens_k[both], np.ldexp(dens[both], -k))
            compared += np.count_nonzero(both)
        assert compared > 2000

    def test_blocks_far_wider_than_the_bandwidth_emit_no_warning(self):
        xs = np.concatenate([curve_sample(), [-1.7e308, -1e300, 1e300, 1.7e308] * 40])
        points, specs = mixed_specs()
        assert np.isfinite(density_curve(xs, points, specs)[0]).sum() > 50


@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("sample", ["tied", "continuous"])
def test_block_sums_over_a_range_are_the_columns_of_the_whole_call(monkeypatch, sample, order, kernel):
    xs = curve_sample() if sample == "tied" else np.random.default_rng(6).normal(0.0, 1.0, 3000)
    rows = localfit._sorted_rows(np.sort(xs))
    nb = xs.size // localfit._BLOCK
    whole = localfit._block_sums(rows, 0.25, order, kernel, 0, nb)
    # chunks of 5 blocks, so the ranges' chunks start at other blocks than the whole call's
    monkeypatch.setattr(localfit, "_BATCH_BYTES", 5 * 256 * localfit._BLOCK)
    for first, stop in ((0, nb), (3, nb - 4), (17, 18), (40, 40), (nb, nb)):
        anchors, anchor_ends, sums, n_pow, offset = localfit._block_sums(rows, 0.25, order, kernel, first, stop)
        assert (n_pow, offset) == (whole[3], first)
        assert sums.shape == (whole[2].shape[0], stop - first)
        assert np.array_equal(anchors, whole[0][first:stop])
        assert np.array_equal(anchor_ends, whole[1][first:stop])
        assert np.array_equal(sums, whole[2][:, first:stop], equal_nan=True)


@pytest.mark.parametrize("xs", [
    curve_sample(),
    np.round(np.random.default_rng(7).normal(0.0, 1.0, 500), 1),
    np.full(5, 2.0),
    np.array([-np.inf, -np.inf, 0.0, np.inf, np.inf]),
    np.array([1.0]),
    np.array([]),
], ids=["curve", "grid", "one-group", "infinite", "one-row", "empty"])
def test_tie_group_ends_are_the_right_insertion_points(xs):
    x = np.sort(xs)
    sorted_x, ends, starts = localfit._sorted_rows(x)
    assert sorted_x is x
    assert ends.dtype == np.intp and np.array_equal(ends, np.searchsorted(x, x, side="right"))
    new_group = np.concatenate([[True], x[1:] != x[:-1]])[: x.size]
    assert np.array_equal(starts, np.concatenate([[0], np.cumsum(new_group)]))


def _dyadic_integers(values):
    """The floats ``values`` times the one power of two that makes them all integers."""
    fractions = [Fraction(float(v)) for v in values]
    exponent = max(f.denominator for f in fractions).bit_length() - 1
    return [int(f * 2**exponent) for f in fractions]


def exact_density(xs_sorted, point, spec):
    """The CDF fit's slope over n h in exact rational arithmetic.

    The rows are those of ``density_window`` to which ``kernel_weight`` gives
    positive weight; u = (x - point) / h and the kernel are exact, and the
    normal equations are solved by Gaussian elimination on fractions.
    Returns the density and the number of rows.
    """
    h = spec.bandwidth
    win = xs_sorted[density_window(xs_sorted, point, spec)]
    win = win[kernel_weight((win - point) / h, spec.kernel) > 0]
    ranks = [int(r) for r in np.searchsorted(xs_sorted, win, side="right")]
    *scaled, p, big_h = _dyadic_integers([*win, point, h])
    us = [x - p for x in scaled]  # u = us / big_h
    if spec.kernel is KernelKind.TRIANGULAR:
        weights, denom = [big_h - abs(u) for u in us], big_h
    elif spec.kernel is KernelKind.UNIFORM:
        weights, denom = [1] * len(us), 2
    else:
        weights, denom = [3 * (big_h * big_h - u * u) for u in us], 4 * big_h * big_h
    d = spec.order + 1
    gram = [Fraction(sum(w * u**k for w, u in zip(weights, us)), denom * big_h**k) for k in range(2 * d + 1)]
    rhs = [Fraction(sum(w * u**k * r for w, u, r in zip(weights, us, ranks)), denom * big_h**k) for k in range(d + 1)]
    rows = [[gram[i + j] for j in range(d + 1)] + [rhs[i]] for i in range(d + 1)]
    for c in range(d + 1):
        pivot = next(r for r in range(c, d + 1) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(d + 1):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    slope = rows[1][d + 1] / rows[1][1]
    return float(slope / (xs_sorted.size * Fraction(h))), win.size


@pytest.fixture(scope="module")
def manipulated_sample():
    """200k draws of the Appendix D design at (p, lambda) = (0.1, 0.05): a
    normal bulk, and exponential landings whose tail reaches F close to 1."""
    rng = np.random.default_rng(0)
    n = 200_000
    x_star = rng.standard_normal(n)
    return np.where((x_star < 0) & (rng.uniform(size=n) < 0.1), rng.exponential(20.0, n), x_star)


class TestDensityAccuracy:
    TOLERANCE = 1e-10

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_cutoff_windows_match_exact_arithmetic(self, manipulated_sample, order, kernel):
        xs = manipulated_sample
        xs_sorted = np.sort(xs)
        h = rot_bandwidth(xs, Side.LEFT, 0.0)
        for side in (Side.LEFT, Side.RIGHT):
            spec = FitSpec(order, h, kernel, side)
            exact, m = exact_density(xs_sorted, 0.0, spec)
            assert m > 4000
            dens, clipped = boundary_density(xs, 0.0, spec)
            assert not clipped
            assert abs(dens - exact) <= self.TOLERANCE * abs(exact)

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_rows_at_the_window_edge_without_weight_match_exact_arithmetic(self, order, kernel):
        # 0.1 + 0.2 is inside the window [p - h, p + h], but its u rounds to
        # 1.0000000000000002, where every kernel_weight is 0
        point, h = 0.1, 0.2
        rng = np.random.default_rng(4)
        xs = np.sort(np.concatenate([rng.uniform(-0.5, 0.7, 400), [point + h] * 3, [point - h] * 2]))
        assert (point + h - point) / h > 1.0
        spec = FitSpec(order, h, kernel, Side.INTERIOR)
        exact, _ = exact_density(xs, point, spec)
        dens, _ = boundary_density(xs, point, spec)
        assert abs(dens - exact) <= self.TOLERANCE * abs(exact)

    def test_far_tail_windows_match_exact_arithmetic(self, manipulated_sample):
        # a few rows at F close to 1: a fit to F itself loses the slope to cancellation
        xs = manipulated_sample
        xs_sorted = np.sort(xs)
        h = rot_bandwidth(xs, Side.RIGHT, 0.0)
        points = np.arange(40.0, xs.max(), h / 2)
        checked = 0
        for order in (0, 1, 2):
            for kernel in KernelKind:
                spec = FitSpec(order, h, kernel, Side.INTERIOR)
                dens, clipped = density_curve(xs, points, [spec] * points.size)
                for point, value in zip(points[~np.isnan(dens) & ~clipped], dens[~np.isnan(dens) & ~clipped]):
                    exact, m = exact_density(xs_sorted, point, spec)
                    if m <= 5:
                        assert abs(value - exact) <= self.TOLERANCE * abs(exact), (point, order, kernel)
                        checked += 1
        assert checked > 300

    @pytest.mark.parametrize("gap, singular", [(2.0**-20, False), (2.0**-24, True)])
    def test_rows_close_together_fit_until_their_gram_is_singular(self, gap, singular):
        # three rows in the window, two of them gap * h apart: the scaled
        # Gram's determinant falls like gap**2, to 2.2e-12 at 2**-20, where
        # the fit keeps five digits, and to 8.7e-15 at 2**-24, below
        # SINGULAR_DET
        point, h = 5.0, 0.5
        rng = np.random.default_rng(3)
        xs = np.sort(np.concatenate([rng.uniform(-1.0, 1.0, 200), point + h * np.array([-0.5, -0.5 + gap, 0.5])]))
        spec = FitSpec(1, h, KernelKind.TRIANGULAR, Side.INTERIOR)
        if singular:
            with pytest.raises(SingularDesign):
                boundary_density(xs, point, spec)
        else:
            exact, m = exact_density(xs, point, spec)
            assert m == 3
            assert abs(boundary_density(xs, point, spec)[0] - exact) <= 1e-4 * abs(exact)


class TestSampleSd:
    def test_same_bits_as_np_std_at_every_scale(self):
        rng = np.random.default_rng(8)
        for exponent in range(-100, 101, 5):
            for values in (
                rng.standard_normal(300) * 10.0**exponent,
                rng.uniform(-2, 7, 50) * 10.0**exponent + rng.uniform(-5, 5) * 10.0**exponent,
                np.abs(rng.standard_normal(1000)) * 10.0**exponent,
            ):
                assert np.float64(sample_sd(values)).tobytes() == np.std(values, ddof=1).tobytes()

    def test_constant_and_zero(self):
        assert sample_sd(np.zeros(5)) == 0.0
        assert sample_sd(np.full(7, -3.25e250)) == 0.0

    def test_no_overflow_or_warning_near_the_float_limit(self):
        values = np.array([-1.5e308, -1e308, 0.0, 1e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sd = sample_sd(values)
            # a non-finite value gives a non-finite sd, silently
            assert np.isnan(sample_sd(np.array([1.0, np.inf, 2.0])))
        assert np.isfinite(sd)
        assert sd == pytest.approx(float(np.std(values / 1e308, ddof=1)) * 1e308, rel=1e-15)


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
            expected = max(1.06 * float(np.std(side, ddof=1)) * side.size ** (-0.2), 1e-8 * side.max())
            assert rot_bandwidth(xs, Side.RIGHT, 0.0) == expected

    @pytest.mark.parametrize("k", [-60, -30, 0, 30, 60])
    def test_floor_scales_with_the_side(self, k):
        # no spread on the left: the floor binds, at MIN_BANDWIDTH times the
        # side's largest |x - c|, and a power of two scales it exactly
        scale = 2.0**k
        xs = np.array([-0.75, -0.75, -0.75, 0.5, 1.0, 2.0]) * scale
        cutoff = 0.25 * scale
        assert rot_bandwidth(xs, Side.LEFT, cutoff) == MIN_BANDWIDTH * scale
        assert rot_bandwidth(xs, Side.RIGHT, cutoff) > MIN_BANDWIDTH * scale

    def test_floor_is_absolute_where_the_side_sits_at_the_cutoff(self):
        xs = np.array([-1.0, -0.5, 3.0, 3.0, 3.0])
        assert rot_bandwidth(xs, Side.RIGHT, 3.0) == MIN_BANDWIDTH

    def test_floor_does_not_overflow(self):
        # x - c overflows a float; its halves do not
        xs = np.array([-1e308, -1e308, 1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rot_bandwidth(xs, Side.LEFT, 1e308) == 2 * MIN_BANDWIDTH * 1e308

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


def near_tied_pair_gram():
    """The weight sums of the order-1 left mean fit on two rows whose u
    differ in the last bit, at the bandwidth of tests/test_boundary.py's
    near-equal pair."""
    h = 0.01 * 1.8132702392002724
    u = np.array([-0.01, -0.01 * (1 - 2.0**-53)]) / h
    assert np.nextafter(u[0], 0.0) == u[1]
    powers = np.empty((3, 2))
    localfit.weighted_powers(u, kernel_weight(u), 2, powers)
    return powers.sum(axis=1)


def test_fit_from_moments_solves_only_the_well_conditioned_systems():
    well = np.array([3.0, -1.25, 0.875])
    batch = np.array([
        well,
        [1.5, -0.75, 0.375],  # three rows at u = -0.5: exactly singular
        near_tied_pair_gram(),
        [0.0, 0.0, 0.0],  # an empty window
        [np.inf, 1.0, 1.0],
    ])
    values = np.array([[1.0, -0.5]] * batch.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = localfit.fit_from_moments(batch, values)
        # the mean fits' broadcast: one Gram per replicate, several value columns
        wide = localfit.fit_from_moments(batch[:, None], np.stack([values, 2 * values], axis=1))
    gram = well[np.add.outer(np.arange(2), np.arange(2))]
    assert np.array_equal(beta[0], np.linalg.solve(gram, values[0]))
    assert np.isnan(beta[1:]).all()
    assert np.array_equal(np.isfinite(wide).all(axis=(1, 2)), [True, False, False, False, False])
    assert np.array_equal(wide[0], [beta[0], 2 * beta[0]])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_every_exactly_singular_window_is_flagged(degree):
    # windows with at most `degree` distinct u, with bootstrap-like counts,
    # summed pairwise as local_poly_fit sums them and in blocks as the engine
    # does: each Gram is singular in exact arithmetic
    rng = np.random.default_rng(degree)
    for _ in range(300):
        distinct = rng.uniform(-1.0, 0.0, rng.integers(1, degree + 1))
        u = np.repeat(distinct, rng.integers(1, 600, distinct.size))
        w = kernel_weight(u, KernelKind(rng.choice([k.value for k in KernelKind])))
        u, w = u[w > 0], w[w > 0]
        counts = rng.multinomial(u.size, np.full(u.size, 1 / u.size)).astype(float)
        powers = np.empty((2 * degree + 1, u.size))
        localfit.weighted_powers(u, w, 2 * degree, powers)
        for sums in ((powers * counts).sum(axis=1), _moment_sums(counts[None], powers)[0]):
            assert np.isnan(localfit.fit_from_moments(sums, np.ones(degree + 1))).all()
