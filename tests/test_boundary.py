import numpy as np
import pytest
from scipy import stats

from mrdd import (
    Bandwidths,
    Dataset,
    FitConfig,
    estimate_boundary,
    gen_appendix_d,
)
from mrdd.errors import InsufficientData, InvalidInputs, InvalidOutcomeRange


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
        bw = be.bandwidths
        be_scaled = estimate_boundary(
            scaled,
            FitConfig(
                bandwidths=Bandwidths(
                    mean_left=k * bw.mean_left,
                    mean_right=k * bw.mean_right,
                    dens_left=k * bw.dens_left,
                    dens_right=k * bw.dens_right,
                )
            ),
        )
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
