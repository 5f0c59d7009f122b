"""Acceptance criteria, one test per criterion, and the sharp estimator
against the oracle where trimming binds.

Each criterion's test prints a single ``[ACCEPTANCE] criterion NN: PASS/FAIL``
line (visible with ``pytest -s``) and then asserts. Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from mrdd import (
    BootstrapConfig,
    TypeAssumption,
    bootstrap_boundary_replicates,
    crude_bounds,
    fuzzy_bounds,
    gen_appendix_d,
    gen_counterexample_e,
    gen_typed,
    imbens_manski_ci,
    oracle_appendix_d,
    sharp_type2_bounds,
    write_typed_csv,
)
from mrdd.cli import RunConfig
from mrdd.cli import main as cli_main
from mrdd.inference import protocol_from_draws
from mrdd.report import build_report
from oracles import binary_sharp_gfuncs, brute_force_trimming, verify_lemma_moments, weighted_trimmed_means
from reports import block_of


def _criterion(capsys, num, ok, detail=""):
    # suspend pytest capture so every criterion prints exactly one line
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {num:02d}: {status}  {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _binary_window(mu_plus):
    """(weights, ys) of a binary outcome with mean mu_plus."""
    return np.array([1.0 - mu_plus, mu_plus]), np.array([0.0, 1.0])


TABLE_ROWS = [
    # (p, lam), crude_lo, crude_hi, sharp_lo, sharp_hi, r
    ((0.1, 0.05), 0.060, 0.185, 0.060, 0.185, 0.894),
    ((0.1, 0.3), 0.032, 0.190, 0.032, 0.190, 0.867),
    ((0.3, 0.05), -0.170, 0.286, -0.168, 0.286, 0.687),
    ((0.3, 0.3), -0.287, 0.303, -0.254, 0.303, 0.629),
]


def test_c01_oracle_reproduces_reference_table(capsys):
    start = time.monotonic()
    worst = 0.0
    for (p, lam), cl, cu, sl, su, r in TABLE_ROWS:
        code = cli_main(["oracle", "--p", str(p), "--lambda", str(lam)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        errs = [
            abs(payload["crude"][0] - cl),
            abs(payload["crude"][1] - cu),
            abs(payload["sharp"][0] - sl),
            abs(payload["sharp"][1] - su),
            abs(payload["r"] - r),
        ]
        worst = max(worst, max(errs))
    elapsed = time.monotonic() - start
    _criterion(capsys, 1, worst <= 0.003 and elapsed < 10.0,
               f"max entry error {worst:.5f}, runtime {elapsed:.2f}s")


def test_c02_theta_true_constant(capsys):
    worst = 0.0
    for p in np.linspace(0.0, 0.3, 4):
        for lam in np.linspace(0.05, 0.3, 4):
            worst = max(worst, abs(oracle_appendix_d(float(p), float(lam)).theta_true - 0.150))
    _criterion(capsys, 2, worst <= 0.001, f"max |theta - 0.150| = {worst:.5f}")


def test_c03_end_to_end_estimation(tmp_path, capsys):
    start = time.monotonic()
    ts = gen_appendix_d(0.1, 0.05, 200_000, 0)
    sample_path = tmp_path / "appendix_d.csv"
    write_typed_csv(ts, str(sample_path))
    out = tmp_path / "report.json"
    code = cli_main([
        "analyze", str(sample_path), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
        "--type", "type2", "--order", "1", "--boot", "200", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    elapsed = time.monotonic() - start
    row = oracle_appendix_d(0.1, 0.05)
    lo, hi = block_of(report)["identified_set"]
    err_lo = abs(lo - row.crude_lower)
    err_hi = abs(hi - row.crude_upper)
    _criterion(
        capsys,
        3,
        report["verdict"] == "UseBounds" and err_lo <= 0.03 and err_hi <= 0.03 and elapsed < 60,
        f"endpoint errors ({err_lo:.4f}, {err_hi:.4f}), runtime {elapsed:.1f}s",
    )


def test_c04_sharp_equals_crude_in_equality_region(capsys):
    worst = 0.0
    for r in (0.5, 0.7, 0.9):
        for mu in np.linspace(1 - r, r, 9):
            sharp = sharp_type2_bounds(*_binary_window(float(mu)), float(mu), 0.45, r, 0.0, 1.0)
            crude = crude_bounds(float(mu), 0.45, r, 0.0, 1.0, TypeAssumption.TYPE2)
            worst = max(worst, abs(sharp.lower - crude.lower), abs(sharp.upper - crude.upper))
    _criterion(capsys, 4, worst <= 1e-9, f"max |sharp - crude| = {worst:.2e}")


def test_c05_structural_bound_identities(capsys):
    rng = np.random.default_rng(42)
    n = 10_000
    ok = True
    detail = ""
    for i in range(n):
        y_lo = rng.uniform(-5, 5)
        y_hi = y_lo + rng.uniform(0.01, 10)
        mu_p = rng.uniform(y_lo, y_hi)
        mu_m = rng.uniform(y_lo, y_hi)
        r = rng.uniform(0.05, 1.0)
        t2 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE2)
        t3 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE3)
        t4 = crude_bounds(mu_p, mu_m, r, y_lo, y_hi, TypeAssumption.TYPE4)
        span = y_hi - y_lo
        checks = [
            abs(t2.lower - min(t3.lower, t4.lower)) < 1e-9 * max(1, span),
            abs(t2.upper - max(t3.upper, t4.upper)) < 1e-9 * max(1, span),
            abs((t3.upper - t3.lower) - (1 - r) * span) < 1e-8 * max(1, span),
            abs((t4.upper - t4.lower) - (1 / r - 1) * span) < 1e-8 * max(1, span) * (1 / r),
        ]
        for t in (TypeAssumption.TYPE2, TypeAssumption.TYPE3, TypeAssumption.TYPE4):
            res = crude_bounds(mu_p, mu_m, 1.0, y_lo, y_hi, t)
            checks.append(abs(res.upper - res.lower) < 1e-9 * max(1, span))
        if not all(checks):
            ok = False
            detail = f"failed at tuple {i}: {(mu_p, mu_m, r, y_lo, y_hi)}"
            break
    if ok:
        # sharp refines crude wherever both are defined (binary windows give
        # both a crude and a sharp interval for the same boundary statistics)
        for i in range(n):
            mu_p = rng.uniform(0.02, 0.98)
            mu_m = rng.uniform(0.0, 1.0)
            r = rng.uniform(0.05, 1.0)
            sharp = sharp_type2_bounds(*_binary_window(mu_p), mu_p, mu_m, r, 0.0, 1.0)
            crude = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
            if not (sharp.lower >= crude.lower - 1e-9 and sharp.upper <= crude.upper + 1e-9
                    and sharp.lower <= sharp.upper + 1e-9):
                ok = False
                detail = f"sharp escaped crude at tuple {i}: {(mu_p, mu_m, r)}"
                break
    _criterion(capsys, 5, ok, detail or f"{n} tuples checked for envelope, widths, and sharp-within-crude")


def test_c06_fuzzy_reduction(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        mu_p, mu_m = rng.uniform(0, 1, 2)
        r = rng.uniform(0.05, 1.0)
        rng.uniform(0.1, 4.0)  # f+: the bounds read only r, but the draw keeps the stream
        fz = fuzzy_bounds(mu_p, mu_m, r, d_plus=1.0, d_minus=0.0, y_low=0.0, y_high=1.0)
        t2 = crude_bounds(mu_p, mu_m, r, 0.0, 1.0, TypeAssumption.TYPE2)
        worst = max(worst, abs(fz.lower - t2.lower), abs(fz.upper - t2.upper))
    _criterion(capsys, 6, worst <= 1e-12, f"max |fuzzy - type2| = {worst:.2e}")


def test_c07_trimming_oracle_equivalence(capsys):
    worst_binary = 0.0
    for mu in np.arange(0.1, 0.95, 0.1):
        for tau in np.arange(0.1, 1.05, 0.1):
            tau = min(float(tau), 1.0)
            lo_a, hi_a = brute_force_trimming([0.0, 1.0], [1 - mu, mu], tau)
            lo_b, hi_b = binary_sharp_gfuncs(float(mu), tau)
            worst_binary = max(worst_binary, abs(lo_a - lo_b), abs(hi_a - hi_b))
    rng = np.random.default_rng(3)
    worst_discrete = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        values = np.sort(rng.uniform(-3, 3, size=k))
        probs = rng.dirichlet(np.ones(k))
        tau = float(rng.uniform(0.05, 1.0))
        lo_a, hi_a = brute_force_trimming(values, probs, tau)
        lo_b, hi_b = weighted_trimmed_means(values, probs, tau, float(values[0]), float(values[-1]))
        worst_discrete = max(worst_discrete, abs(lo_a - lo_b), abs(hi_a - hi_b))
    _criterion(
        capsys,
        7,
        worst_binary <= 1e-12 and worst_discrete <= 1e-9,
        f"binary grid {worst_binary:.2e}, random discrete {worst_discrete:.2e}",
    )


@pytest.mark.slow
def test_c08_smooth_density_counterexample(capsys):
    accept = 0
    runs = 100
    jumps, left_limits, right_limits = [], [], []
    for seed in range(runs):
        ts = gen_counterexample_e(1_000_000, seed=seed)
        # one bootstrap pass gives the density test and the point estimates
        draws = bootstrap_boundary_replicates(ts.data, BootstrapConfig(b=64, seed=seed))
        res = protocol_from_draws(draws, 0.05).density
        accept += abs(res.statistic) < 1.96
        be = draws.point
        jumps.append(be.mu_plus - be.mu_minus)
        left_limits.append(be.mu_minus)
        right_limits.append(be.mu_plus)
    jump, left, right = np.mean(jumps), np.mean(left_limits), np.mean(right_limits)
    means_ok = (
        abs(jump + 1 / 3) <= 0.02 and abs(left + 1 / 6) <= 0.01 and abs(right + 1 / 2) <= 0.01
    )
    _criterion(
        capsys,
        8,
        accept >= 85 and means_ok,
        f"{accept}/{runs} runs accept smooth density; mean jump {jump:.4f}, "
        f"limits ({left:.4f}, {right:.4f})",
    )


def test_c09_lemma_identity_residuals(capsys):
    theta = float(stats.norm.cdf(-0.5) - stats.norm.cdf(-1.0))
    presets = {
        "type0": gen_typed({0: 1.0}, n=1_000_000, seed=5),
        "type2": gen_appendix_d(0.3, 0.3, 1_000_000, 11),
        "type4": gen_typed({0: 0.5, 4: 0.5}, n=1_000_000, seed=0),
    }
    worst = 0.0
    fraction_seen = False
    for name, ts in presets.items():
        report = verify_lemma_moments(ts, window=0.02, point_effect=theta)
        assert report.residuals, name
        fraction_seen |= any("fraction" in key for key in report.residuals)
        worst = max(worst, max(report.residuals.values()))
    _criterion(capsys, 9, worst < 0.02 and fraction_seen, f"max residual {worst:.4f}")


def test_c10_published_set_width_consistency(capsys):
    res = crude_bounds(0.5, 0.4, 0.792, 0.0, 1.0, TypeAssumption.TYPE4)
    width = res.upper - res.lower
    ok = abs(width - 0.2626) <= 0.0005 and abs(width - (0.627 - 0.363)) <= 0.005
    _criterion(capsys, 10, ok, f"type-4 width at r=0.792 is {width:.4f} vs published 0.264")


def test_c11_cli_determinism(tmp_path, capsys):
    sim_args = ["simulate", "appendix-d", "--p", "0.1", "--lambda", "0.05",
                "--n", "4000", "--seed", "9"]
    sims = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert cli_main(sim_args + ["--out", str(path)]) == 0
        sims.append(path.read_bytes())
    sample = tmp_path / "s1.csv"
    reports = []
    for name, workers in (("r1.json", "1"), ("r2.json", "1"), ("r4.json", "4")):
        out = tmp_path / name
        code = cli_main([
            "analyze", str(sample), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
            "--boot", "64", "--seed", "5", "--workers", workers, "--out", str(out),
        ])
        assert code == 0
        reports.append(out.read_bytes())
    ok = sims[0] == sims[1] and reports[0] == reports[1] == reports[2]
    _criterion(capsys, 11, ok, "simulate and analyze byte-identical across runs and worker counts")


def test_c12_imbens_manski_limits(capsys):
    z_two = float(stats.norm.ppf(0.975))
    z_one = float(stats.norm.ppf(0.95))
    point = imbens_manski_ci(0.4, 0.4, 0.1, 0.1, alpha=0.05)
    wide = imbens_manski_ci(0.0, 100.0, 0.1, 0.1, alpha=0.05)  # width/SE = 1000
    err_point = abs(point.c_bar - z_two)
    err_wide = abs(wide.c_bar - z_one)
    _criterion(
        capsys,
        12,
        err_point <= 1e-4 and err_wide <= 1e-3,
        f"|c - z(0.975)| = {err_point:.2e}, |c - z(0.95)| = {err_wide:.2e}",
    )


#: Bound on the mean end error of analyze --sharp over the 8 SHARP_SEEDS:
#: |bias| + 4 sd / sqrt(8) of the per-seed errors in a Monte Carlo on seeds
#: 1000-1099, which the gate does not use. The largest, 0.0605, is the lower
#: end's at (0.3, 0.3): mean error -0.0105, sd 0.0354.
SHARP_TOLERANCE = 0.065
SHARP_SEEDS = range(8)


@pytest.mark.parametrize("p, lam", [(0.3, 0.3), (0.5, 0.3)])
def test_sharp_set_matches_oracle_where_trimming_binds(p, lam):
    # the oracle's sharp lower end lies strictly inside its crude one here,
    # so the right-boundary trimming binds; the sharp set reads no replicate
    row = oracle_appendix_d(p, lam)
    assert row.sharp_lower > row.crude_lower + 0.03
    cfg = RunConfig(cutoff=0.0, y_low=0.0, y_high=1.0, sharp=True, boot=BootstrapConfig(b=50, seed=0))
    ends = [block_of(build_report(cfg, gen_appendix_d(p, lam, 200_000, seed).data))["sharp_set"]
            for seed in SHARP_SEEDS]
    errors = np.mean(ends, axis=0) - [row.sharp_lower, row.sharp_upper]
    assert np.abs(errors).max() <= SHARP_TOLERANCE, errors
