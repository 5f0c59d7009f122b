import numpy as np
import pytest

from mrdd import (
    BootstrapConfig,
    Dataset,
    Verdict,
    bootstrap_boundary_replicates,
    gen_appendix_d,
    gen_typed,
)
from mrdd.errors import InvalidConfig, InvalidInputs, UnknownCovariate
from mrdd.inference import _balance_test, _density_test, _jump_test, protocol_from_draws


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
        rejections = 0
        for s in range(200):
            data = gen_typed({1: 1.0}, n=50_000, seed=s).data
            draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=s))
            rejections += _density_test(draws).p_value < 0.05
        assert rejections <= 20

    @pytest.mark.slow
    def test_power_on_one_sided_manipulation(self):
        # population jump 0.5*lam*p + p*phi(0) > 0 at (0.3, 0.3)
        rejections = 0
        for s in range(200):
            data = gen_appendix_d(0.3, 0.3, 50_000, s).data
            draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=s))
            rejections += _density_test(draws).p_value < 0.05
        assert rejections >= 160

    def test_statistic_sign_flips_under_mirroring(self, appendix_d_small):
        data = appendix_d_small.data
        boot = BootstrapConfig(b=64, seed=3)
        res = _density_test(bootstrap_boundary_replicates(data, boot))
        mirrored = Dataset(xs=-data.xs, ys=data.ys, cutoff=0.0)
        res_m = _density_test(bootstrap_boundary_replicates(mirrored, boot))
        # the jump estimate flips exactly; the bootstrap SE differs at the
        # per-mille level because resample ties break the rank symmetry
        assert np.sign(res_m.statistic) == -np.sign(res.statistic)
        assert res_m.statistic == pytest.approx(-res.statistic, rel=0.01)

    def test_deterministic(self, appendix_d_small):
        boot = BootstrapConfig(b=64, seed=11)
        a, b = (_density_test(bootstrap_boundary_replicates(appendix_d_small.data, boot)) for _ in range(2))
        assert a == b

    def test_small_b_rejected(self, appendix_d_small):
        with pytest.raises(InvalidConfig):
            bootstrap_boundary_replicates(appendix_d_small.data, BootstrapConfig(b=49, seed=0))


class TestBalanceTest:
    @pytest.mark.slow
    def test_size_on_independent_covariate(self):
        rejections = 0
        for s in range(200):
            ts = gen_appendix_d(0.2, 0.2, 20_000, s)
            data = with_covariates(ts, seed=5000 + s)
            draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=s), covariates=("noise",))
            rejections += _balance_test(draws, 0).p_value < 0.05
        assert rejections <= 20

    @pytest.mark.slow
    def test_power_on_latent_score_covariate(self):
        # manipulators shift x upward but carry low latent scores
        rejections = 0
        for s in range(100):
            ts = gen_appendix_d(0.3, 0.3, 50_000, s)
            data = with_covariates(ts, seed=s, extra={"wstar": ts.x_star})
            draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=s), covariates=("wstar",))
            rejections += _balance_test(draws, 0).p_value < 0.05
        assert rejections >= 80

    def test_constant_covariate_convention(self, appendix_d_small):
        data = with_covariates(
            appendix_d_small, seed=1, extra={"const": np.ones(appendix_d_small.data.n)}
        )
        draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=0), covariates=("const",))
        res = _balance_test(draws, 0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_nonzero_jump_with_zero_replicate_sd_gives_p_one(self):
        # every replicate has the same jump, so the SE is degenerate
        res = _jump_test(0.5, np.tile([1.0, 0.5], (64, 1)), "balance-test")
        assert (res.statistic, res.p_value, res.replications) == (0.0, 1.0, 64)
        assert res.warnings == ("degenerate bootstrap SE; p-value set to 1",)

    def test_unknown_covariate(self, appendix_d_small):
        boot = BootstrapConfig(b=64, seed=0)
        with pytest.raises(UnknownCovariate):
            bootstrap_boundary_replicates(appendix_d_small.data, boot, covariates=("missing",))

    def test_repeated_covariate(self, appendix_d_small):
        data = with_covariates(appendix_d_small, seed=1)
        boot = BootstrapConfig(b=64, seed=0)
        with pytest.raises(InvalidConfig, match="^covariate 'noise' is named more than once$"):
            bootstrap_boundary_replicates(data, boot, covariates=("noise", "noise"))


class TestSequentialProtocol:
    def test_manipulated_sample_uses_bounds(self):
        ts = gen_appendix_d(0.3, 0.3, 50_000, 1)
        data = with_covariates(ts, seed=2)
        boot = BootstrapConfig(b=64, seed=1)
        draws = bootstrap_boundary_replicates(data, boot, covariates=("noise",))
        outcome = protocol_from_draws(draws, boot.alpha)
        assert outcome.verdict is Verdict.USE_BOUNDS
        assert outcome.balance is None  # structurally skipped on rejection

    def test_clean_sample_point_identified(self):
        ts = gen_typed({0: 1.0}, n=50_000, seed=1)
        data = with_covariates(ts, seed=9)
        boot = BootstrapConfig(b=64, seed=1)
        draws = bootstrap_boundary_replicates(data, boot, covariates=("noise",))
        outcome = protocol_from_draws(draws, boot.alpha)
        assert outcome.verdict is Verdict.POINT_IDENTIFIED
        assert outcome.balance is not None
        assert all(res.p_value >= 0.05 for _, res in outcome.balance)

    @pytest.mark.slow
    def test_point_identified_rate_on_harmless_dgp(self):
        hits = 0
        for s in range(100):
            ts = gen_typed({1: 1.0}, n=20_000, seed=s)
            data = with_covariates(ts, seed=7000 + s)
            boot = BootstrapConfig(b=64, seed=s)
            draws = bootstrap_boundary_replicates(data, boot, covariates=("noise",))
            outcome = protocol_from_draws(draws, boot.alpha)
            hits += outcome.verdict is Verdict.POINT_IDENTIFIED
        assert hits >= 80

    def test_imbalanced_covariate_flags_design(self):
        ts = gen_appendix_d(0.0, 0.05, 50_000, 8)
        # clean density, but wire in a covariate that jumps at the cutoff
        broken = ts.data.xs >= 0
        data = with_covariates(ts, seed=3, extra={"broken": broken.astype(float)})
        boot = BootstrapConfig(b=64, seed=8)
        draws = bootstrap_boundary_replicates(data, boot, covariates=("broken",))
        outcome = protocol_from_draws(draws, boot.alpha)
        assert outcome.verdict is Verdict.DESIGN_SUSPECT

    def test_alpha_validation(self, appendix_d_small):
        draws = bootstrap_boundary_replicates(appendix_d_small.data, BootstrapConfig(b=64, seed=0))
        for alpha in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(InvalidInputs, match=r"^alpha must lie in \(0, 0.5\], got "):
                protocol_from_draws(draws, alpha)
        assert protocol_from_draws(draws, 0.5).density == _density_test(draws)

    def test_balance_presence_matches_density_outcome(self):
        # for a mid-strength DGP, whichever way the density test goes, the
        # structural invariant holds
        ts = gen_appendix_d(0.1, 0.3, 20_000, 3)
        data = with_covariates(ts, seed=4)
        cfg = BootstrapConfig(b=64, seed=3)
        draws = bootstrap_boundary_replicates(data, cfg, covariates=("noise",))
        outcome = protocol_from_draws(draws, cfg.alpha)
        if outcome.density.p_value < cfg.alpha:
            assert outcome.balance is None
        else:
            assert outcome.balance is not None
