import numpy as np
import pytest
from scipy import stats

from mrdd import boundary, localfit
from mrdd import (
    Dataset,
    FitConfig,
    FitSpec,
    KernelKind,
    Side,
    estimate_boundary,
    gen_appendix_d,
    kernel_weight,
    local_poly_fit,
    rot_bandwidth,
)
from mrdd.errors import (
    DataError,
    DegenerateSupport,
    InsufficientData,
    InvalidConfig,
    InvalidInputs,
    InvalidOutcomeRange,
    SingularDesign,
)
from oracles import density_window


def population_r(p, lam):
    phi0 = stats.norm.pdf(0.0)
    return (1 - p) * phi0 / (phi0 + 0.5 * lam * p)


class TestDataset:
    def test_outcome_range_enforced(self):
        with pytest.raises(InvalidOutcomeRange):
            Dataset(xs=[0.0, 1.0], ys=[0.5, 1.5], cutoff=0.0, y_low=0.0, y_high=1.0)
        with pytest.raises(InvalidOutcomeRange):
            Dataset(xs=[0.0], ys=[0.5], cutoff=0.0, y_low=1.0, y_high=0.0)

    def test_binary_treatment_enforced(self):
        with pytest.raises(InvalidInputs, match="'d'"):
            Dataset(xs=[0.0, 1.0], ys=[0.0, 1.0], cutoff=0.0, d=[0.0, 0.5])

    @pytest.mark.parametrize("column", ["x", "y", "d", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, column, bad):
        cols = {name: np.array([0.0, 1.0, 0.0]) for name in ("x", "y", "d", "w")}
        cols[column][1] = bad
        with pytest.raises(InvalidInputs, match=f"'{column}'"):
            Dataset(xs=cols["x"], ys=cols["y"], cutoff=0.0, d=cols["d"], covariates={"w": cols["w"]})

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputs, match="'y'"):
            Dataset(xs=[0.0, 1.0], ys=[0.0], cutoff=0.0)
        with pytest.raises(InvalidInputs, match="'d'"):
            Dataset(xs=[0.0, 1.0], ys=[0.0, 1.0], cutoff=0.0, d=[0.0])
        with pytest.raises(InvalidInputs, match="'w'"):
            Dataset(xs=[0.0, 1.0], ys=[0.0, 1.0], cutoff=0.0, covariates={"w": [0.0]})

    def test_running_variable_must_be_one_dimensional(self):
        with pytest.raises(InvalidInputs, match=r"^column 'x' must be 1-d, got shape \(2, 1\)$"):
            Dataset(xs=[[0.0], [1.0]], ys=[0.0, 1.0], cutoff=0.0)

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf])
    def test_cutoff_must_be_finite(self, cutoff):
        with pytest.raises(InvalidConfig, match="^cutoff must be finite$"):
            Dataset(xs=[0.0, 1.0], ys=[0.0, 1.0], cutoff=cutoff)


class TestEstimateBoundary:
    def test_appendix_d_r_statistic(self):
        # fixed seed; population r = 0.894 for (p, lam) = (0.1, 0.05)
        ts = gen_appendix_d(0.1, 0.05, 200_000, 0)
        be = estimate_boundary(ts.data)
        assert be.r == pytest.approx(population_r(0.1, 0.05), abs=0.03)
        assert be.r == be.f_minus / be.f_plus

    def test_smooth_symmetric_dgp(self):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal(100_000)
        data = Dataset(xs=xs, ys=xs, cutoff=0.0)
        be = estimate_boundary(data)
        assert be.r == pytest.approx(1.0, abs=0.05)
        assert abs(be.mu_plus) < 0.05
        assert abs(be.mu_minus) < 0.05

    def test_empty_side_raises_with_label(self):
        rng = np.random.default_rng(1)
        xs = np.abs(rng.standard_normal(1000)) + 0.1
        data = Dataset(xs=xs, ys=xs, cutoff=0.0)
        with pytest.raises(InsufficientData) as excinfo:
            estimate_boundary(data)
        assert excinfo.value.side == "left"

    def test_r_scale_invariance(self, appendix_d_small):
        data = appendix_d_small.data
        be = estimate_boundary(data)
        k = 7.5
        scaled = Dataset(
            xs=k * data.xs, ys=data.ys, cutoff=k * data.cutoff, y_low=data.y_low, y_high=data.y_high
        )
        be_scaled = estimate_boundary(scaled, FitConfig(**{name: k * h for name, h in be.bandwidths.items()}))
        assert be_scaled.r == pytest.approx(be.r, rel=1e-9)
        assert be_scaled.mu_plus == pytest.approx(be.mu_plus, rel=1e-9)

    def test_outcome_shift_invariance(self, appendix_d_small):
        data = appendix_d_small.data
        be = estimate_boundary(data)
        shifted = Dataset(xs=data.xs, ys=data.ys + 4.0, cutoff=data.cutoff)
        be_shifted = estimate_boundary(shifted)
        assert be_shifted.mu_plus == pytest.approx(be.mu_plus + 4.0, abs=1e-9)
        assert be_shifted.mu_minus == pytest.approx(be.mu_minus + 4.0, abs=1e-9)
        assert be_shifted.f_plus == pytest.approx(be.f_plus, rel=1e-12)
        assert be_shifted.f_minus == pytest.approx(be.f_minus, rel=1e-12)

    def test_r_estimate_converges(self):
        # consistency: average absolute error shrinks as n grows
        target = population_r(0.1, 0.05)
        errors = {}
        for n in (10_000, 400_000):
            errs = []
            for seed in (0, 1, 2):
                ts = gen_appendix_d(0.1, 0.05, n, seed)
                errs.append(abs(estimate_boundary(ts.data).r - target))
            errors[n] = np.mean(errs)
        assert errors[400_000] < errors[10_000]

    def test_warning_flag_when_r_above_one(self):
        # left-heavy density: exponential mass below the cutoff
        rng = np.random.default_rng(5)
        xs = np.concatenate([-rng.exponential(1.0, 30_000), rng.uniform(0, 4, 10_000)])
        data = Dataset(xs=xs, ys=np.zeros_like(xs), cutoff=0.0)
        be = estimate_boundary(data)
        assert be.r > 1.0
        assert "density_ratio_above_one" in be.warnings


def degenerate_cases():
    """Samples that one boundary fit cannot support, with its error: class, side and message."""
    rng = np.random.default_rng(1)
    left, right = -rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
    ones = dict.fromkeys(boundary.FITS, 1.0)
    h = 1.8132702392002724  # the two right values' distances over h round to one u
    narrow = {"mean_left": 0.02, "mean_right": 0.5, "dens_left": 1.0, "dens_right": 0.5}
    return [
        (np.abs(rng.standard_normal(1000)) + 0.1, ones, 1, InsufficientData, "left",
         "left density fit: 0 distinct in-window points on side 'left', need at least 3 for a degree-2 CDF fit"),
        (np.concatenate([np.full(80, 0.5), right[:20], left]), ones, 1, DegenerateSupport, "right",
         "right density fit: 79 of 100 in-window values are exact duplicates; the running variable looks discrete"),
        (np.concatenate([[0.1, 0.2], left]), ones, 1, InsufficientData, "right",
         "right density fit: 2 distinct in-window points on side 'right', need at least 3 for a degree-2 CDF fit"),
        (np.concatenate([[np.nextafter(1.0, 0.0), 1.0], left]), dict.fromkeys(boundary.FITS, h), 0, SingularDesign, "right",
         "right density fit: normal equations of the degree-1 CDF fit are singular on 2 distinct "
         "positive-weight values in window"),
        (np.concatenate([np.full(3, -0.001), left - 0.05, right]), narrow, 1, SingularDesign, "left",
         "left mean fit: normal equations rank 1 < 2; not enough distinct running-variable values in window"),
        (np.concatenate([[-0.001], left - 0.05, right]), narrow, 1, InsufficientData, "left",
         "left mean fit: 1 in-window points on side 'left', need at least 2 for order 1"),
        # all four windows are empty, so the plan holds no window rows
        (np.concatenate([left - 5.0, right + 5.0]), ones, 1, InsufficientData, "left",
         "left density fit: 0 distinct in-window points on side 'left', need at least 3 for a degree-2 CDF fit"),
    ]


@pytest.mark.parametrize("xs, bandwidths, order, error, side, message", degenerate_cases())
def test_degenerate_sample_raises_labeled_error(xs, bandwidths, order, error, side, message):
    data = Dataset(xs=xs, ys=np.zeros_like(xs), cutoff=0.0)
    with pytest.raises(error) as excinfo:
        estimate_boundary(data, FitConfig(order=order, kernel=KernelKind.TRIANGULAR, **bandwidths))
    assert excinfo.value.side == side
    assert str(excinfo.value) == message


def near_equal_pair_fits(pair_ys):
    """Two ways to fit mu-, ``estimate_boundary`` and ``local_poly_fit``, on a
    sample whose left mean window holds only two values, with outcomes
    ``pair_ys``, whose u = x / h differ in the last bit."""
    h = 0.01 * 1.8132702392002724
    pair = np.array([-0.01, -0.01 * (1 - 2.0**-53)])
    assert np.nextafter(pair[0] / h, 0.0) == pair[1] / h
    rng = np.random.default_rng(1)
    left, right = -rng.uniform(0.05, 1.0, 400), rng.uniform(0.0, 1.0, 400)
    xs = np.concatenate([left, pair, right])
    assert np.count_nonzero((xs > -h) & (xs < 0.0)) == 2
    ys = np.concatenate([np.zeros(400), pair_ys, (right > 0.5).astype(float)])
    config = FitConfig(order=1, mean_left=h, mean_right=0.5, dens_left=1.0, dens_right=1.0)
    return (
        lambda: estimate_boundary(Dataset(xs=xs, ys=ys, cutoff=0.0), config).mu_minus,
        lambda: float(local_poly_fit(xs, ys, 0.0, FitSpec(1, h, KernelKind.TRIANGULAR, Side.LEFT)).coefficients[0]),
    )


@pytest.mark.parametrize("pair_ys", [(1.0, 1.0), (0.0, 1.0)])
def test_near_equal_scaled_distances_fit_as_local_poly_fit_does(pair_ys):
    # both fits count two distinct u and solve the nearly singular equations
    # alike, or both raise one error class
    fits = near_equal_pair_fits(pair_ys)
    outcomes = []
    for fit in fits:
        try:
            outcomes.append(fit())
        except DataError as err:
            outcomes.append(type(err))
    assert outcomes[0] == outcomes[1]


def test_near_equal_pair_of_ones_fits_one_or_raises():
    # every outcome in the window is 1, so a fit that does not raise must
    # give level 1
    for fit in near_equal_pair_fits((1.0, 1.0)):
        try:
            mu_minus = fit()
        except SingularDesign:
            continue
        assert abs(mu_minus - 1.0) <= 1e-9, mu_minus


@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("name", boundary.FITS)
def test_bandwidth_must_be_positive_and_finite(name, value):
    with pytest.raises(InvalidConfig, match=f"^bandwidth {name} must be positive and finite, got {value}$"):
        FitConfig(**{name: value})


def test_estimates_key_the_fits_in_order(appendix_d_small):
    # the report writes both maps as they are, so their order is its bytes'
    be = estimate_boundary(appendix_d_small.data, FitConfig(dens_right=0.3))
    assert tuple(be.bandwidths) == tuple(be.n_effective) == boundary.FITS
    assert be.bandwidths["dens_right"] == 0.3
    assert all(type(count) is int and count > 0 for count in be.n_effective.values())


@pytest.mark.parametrize("spec", ["mean_spec", "density_spec"])
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_fit_specs_need_resolved_bandwidths(spec, side):
    with pytest.raises(InvalidConfig, match="^resolve the bandwidths before building a fit$"):
        getattr(FitConfig(), spec)(side)


@pytest.mark.parametrize("given,sides", [
    ({}, [Side.LEFT, Side.RIGHT]),
    ({"mean_left": 0.3, "dens_left": 0.4}, [Side.RIGHT]),
    ({"mean_right": 0.3}, [Side.LEFT, Side.RIGHT]),
    ({"mean_left": 0.3, "mean_right": 0.2, "dens_left": 0.4, "dens_right": 0.5}, []),
], ids=["none", "left", "mean_right", "all"])
def test_rule_of_thumb_runs_once_per_side_that_lacks_a_bandwidth(monkeypatch, given, sides):
    # the mean and density fits on a side share one rule-of-thumb value
    xs = gen_appendix_d(0.1, 0.05, 5_000, 0).data.xs
    calls = []

    def counted(x, side, cutoff):
        calls.append(side)
        return rot_bandwidth(x, side, cutoff)

    monkeypatch.setattr(boundary, "rot_bandwidth", counted)
    fit = FitConfig(**given).resolved(xs, 0.0)
    assert calls == sides
    for name in boundary.FITS:
        side = Side(name.split("_")[1])
        expected = given.get(name, rot_bandwidth(xs, side, 0.0))
        assert getattr(fit, name).hex() == expected.hex(), name


def cdf_window_samples():
    """Samples for CDF windows at 0 with h = 0.5: ties, rows on the window
    edges, where the triangular and Epanechnikov kernels give no weight, a
    discrete patch past the duplicate share, and a left window of three
    values, too few distinct values for a degree-3 fit."""
    rng = np.random.default_rng(5)
    smooth = rng.normal(0.0, 0.6, 600)
    edges = np.repeat([-1.0, -0.5, 0.0, 0.5, 1.0], 4)
    return {
        "tied": np.concatenate([np.round(smooth * 16) / 16, edges]),
        "edges": np.concatenate([smooth, edges]),
        "discrete": np.concatenate([np.repeat([-0.25, 0.25], 40), smooth[:20], edges]),
        "sparse": np.concatenate([[-0.5, -0.3, -0.2], rng.uniform(0.0, 0.5, 30), [0.5, 0.5]]),
    }


@pytest.mark.parametrize("kernel", list(KernelKind), ids=lambda k: k.value)
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("sample", ["tied", "edges", "discrete", "sparse"])
def test_plan_cdf_windows_are_the_density_fits(sample, order, kernel):
    # build_plan and density_curve take the CDF window from one function: on
    # each side the plan's counts are _density_fits' at the cutoff, and the
    # rows it gives CDF weight are the window's positive-weight rows. The left
    # side's mean window is narrower, so its CDF weights are stored apart
    xs = cdf_window_samples()[sample]
    fit = FitConfig(order, kernel, mean_left=0.25, mean_right=0.5, dens_left=0.5, dens_right=0.5)
    plan = boundary.build_plan(Dataset(xs=xs, ys=np.zeros_like(xs), cutoff=0.0), fit)
    assert [part.cdf_row > 0 for part in plan.sides] == [False, True]
    for side, part in zip((Side.RIGHT, Side.LEFT), plan.sides):
        spec = fit.density_spec(side)
        assert part.density_counts == tuple(localfit._density_fits(xs, [0.0], [spec])[2][:, 0].tolist())
        window = density_window(xs, 0.0, spec)
        positive = window & (kernel_weight(xs / spec.bandwidth, kernel) > 0)
        assert part.density_counts == (window.sum(), np.unique(xs[window]).size, np.unique(xs[positive]).size)
        weighted = np.flatnonzero(part.moments[part.cdf_row] > 0)
        np.testing.assert_array_equal(xs[plan.index[part.rows][weighted]], np.sort(xs[positive]))
