import numpy as np
import pytest

from mrdd import (
    AppendixDSpec,
    BootstrapConfig,
    Dataset,
    Verdict,
    balance_test,
    density_discontinuity_test,
    gen_appendix_d,
    gen_typed,
    run_sequential_protocol,
)
from mrdd.errors import InvalidConfig, UnknownCovariate


def with_covariates(ts, seed, extra=None):
    covs = {"noise": np.random.default_rng(seed).standard_normal(ts.data.n)}
    if extra:
        covs.update(extra)
    return Dataset(
        xs=ts.data.xs,
        ys=ts.data.ys,
        cutoff=ts.data.cutoff,
        y_low=ts.data.y_low,
        y_high=ts.data.y_high,
        d=ts.data.d,
        covariates=covs,
    )


class TestDensityTest:
    @pytest.mark.slow
    def test_size_on_harmless_manipulation(self):
        # two-sided outcome-independent manipulation keeps the density smooth
        rejections = sum(
            density_discontinuity_test(
                gen_typed({1: 1.0}, n=50_000, seed=s).data, boot=BootstrapConfig(b=64, seed=s)
            ).p_value
            < 0.05
            for s in range(200)
        )
        assert rejections <= 20

    @pytest.mark.slow
    def test_power_on_one_sided_manipulation(self):
        # population jump 0.5*lam*p + p*phi(0) > 0 at (0.3, 0.3)
        rejections = sum(
            density_discontinuity_test(
                gen_appendix_d(AppendixDSpec(p=0.3, lam=0.3, n=50_000, seed=s)).data,
                boot=BootstrapConfig(b=64, seed=s),
            ).p_value
            < 0.05
            for s in range(200)
        )
        assert rejections >= 160

    def test_statistic_sign_flips_under_mirroring(self, appendix_d_small):
        data = appendix_d_small.data
        res = density_discontinuity_test(data, boot=BootstrapConfig(b=64, seed=3))
        mirrored = Dataset(xs=-data.xs, ys=data.ys, cutoff=0.0)
        res_m = density_discontinuity_test(mirrored, boot=BootstrapConfig(b=64, seed=3))
        # the jump estimate flips exactly; the bootstrap SE differs at the
        # per-mille level because resample ties break the rank symmetry
        assert np.sign(res_m.statistic) == -np.sign(res.statistic)
        assert res_m.statistic == pytest.approx(-res.statistic, rel=0.01)

    def test_deterministic(self, appendix_d_small):
        a = density_discontinuity_test(appendix_d_small.data, boot=BootstrapConfig(b=64, seed=11))
        b = density_discontinuity_test(appendix_d_small.data, boot=BootstrapConfig(b=64, seed=11))
        assert a == b

    def test_small_b_rejected(self, appendix_d_small):
        with pytest.raises(InvalidConfig):
            density_discontinuity_test(appendix_d_small.data, boot=BootstrapConfig(b=49, seed=0))


class TestBalanceTest:
    @pytest.mark.slow
    def test_size_on_independent_covariate(self):
        rejections = 0
        for s in range(200):
            ts = gen_appendix_d(AppendixDSpec(p=0.2, lam=0.2, n=20_000, seed=s))
            data = with_covariates(ts, seed=5000 + s)
            rejections += balance_test(data, "noise", boot=BootstrapConfig(b=64, seed=s)).p_value < 0.05
        assert rejections <= 20

    @pytest.mark.slow
    def test_power_on_latent_score_covariate(self):
        # manipulators shift x upward but carry low latent scores
        rejections = 0
        for s in range(100):
            ts = gen_appendix_d(AppendixDSpec(p=0.3, lam=0.3, n=50_000, seed=s))
            data = with_covariates(ts, seed=s, extra={"wstar": ts.x_star})
            rejections += balance_test(data, "wstar", boot=BootstrapConfig(b=64, seed=s)).p_value < 0.05
        assert rejections >= 80

    def test_constant_covariate_convention(self, appendix_d_small):
        data = with_covariates(
            appendix_d_small, seed=1, extra={"const": np.ones(appendix_d_small.data.n)}
        )
        res = balance_test(data, "const", boot=BootstrapConfig(b=64, seed=0))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_unknown_covariate(self, appendix_d_small):
        with pytest.raises(UnknownCovariate):
            balance_test(appendix_d_small.data, "missing", boot=BootstrapConfig(b=64, seed=0))


class TestSequentialProtocol:
    def test_manipulated_sample_uses_bounds(self):
        ts = gen_appendix_d(AppendixDSpec(p=0.3, lam=0.3, n=50_000, seed=1))
        data = with_covariates(ts, seed=2)
        outcome = run_sequential_protocol(data, BootstrapConfig(b=64, seed=1))
        assert outcome.verdict is Verdict.USE_BOUNDS
        assert outcome.balance is None  # structurally skipped on rejection

    def test_clean_sample_point_identified(self):
        ts = gen_typed({0: 1.0}, n=50_000, seed=1)
        data = with_covariates(ts, seed=9)
        outcome = run_sequential_protocol(data, BootstrapConfig(b=64, seed=1))
        assert outcome.verdict is Verdict.POINT_IDENTIFIED
        assert outcome.balance is not None
        assert all(res.p_value >= 0.05 for _, res in outcome.balance)

    @pytest.mark.slow
    def test_point_identified_rate_on_harmless_dgp(self):
        hits = 0
        for s in range(100):
            ts = gen_typed({1: 1.0}, n=20_000, seed=s)
            data = with_covariates(ts, seed=7000 + s)
            outcome = run_sequential_protocol(data, BootstrapConfig(b=64, seed=s))
            hits += outcome.verdict is Verdict.POINT_IDENTIFIED
        assert hits >= 80

    def test_imbalanced_covariate_flags_design(self):
        ts = gen_appendix_d(AppendixDSpec(p=0.0, lam=0.05, n=50_000, seed=8))
        # clean density, but wire in a covariate that jumps at the cutoff
        broken = ts.data.xs >= 0
        data = with_covariates(ts, seed=3, extra={"broken": broken.astype(float)})
        outcome = run_sequential_protocol(data, BootstrapConfig(b=64, seed=8), covariates=("broken",))
        assert outcome.verdict is Verdict.DESIGN_SUSPECT

    def test_alpha_validation(self, appendix_d_small):
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(InvalidConfig):
                run_sequential_protocol(
                    appendix_d_small.data, BootstrapConfig(alpha=alpha, b=64, seed=0)
                )

    def test_balance_presence_matches_density_outcome(self):
        # for a mid-strength DGP, whichever way the density test goes, the
        # structural invariant holds
        ts = gen_appendix_d(AppendixDSpec(p=0.1, lam=0.3, n=20_000, seed=3))
        data = with_covariates(ts, seed=4)
        cfg = BootstrapConfig(b=64, seed=3)
        outcome = run_sequential_protocol(data, cfg)
        if outcome.density.p_value < cfg.alpha:
            assert outcome.balance is None
        else:
            assert outcome.balance is not None
