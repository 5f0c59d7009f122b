"""Density discontinuity test, covariate balance test, and the sequential protocol.

The density test asks whether the running variable's density jumps at the
cutoff; under the maintained manipulation restrictions a smooth density
implies point identification, so the test is run first. Only when it
accepts are covariate balance tests meaningful as a further design check,
hence the sequential rather than simultaneous protocol.

Standard errors come from a nonparametric row bootstrap with replicate-keyed
randomness; bandwidths are frozen at their full-sample values across
replicates. Every test reads its two columns of the analysis's one
bootstrap pass (``bootstrap_boundary_replicates``), where a failed fit is
a NaN cell: a test drops only the replicates its own two fits lost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._bootstrap import BootstrapConfig, drop_failed
from .boundary import Dataset, FitConfig
from .inference import BoundaryDraws, bootstrap_boundary_replicates
from .localfit import sample_sd


class Verdict(enum.Enum):
    USE_BOUNDS = "UseBounds"
    POINT_IDENTIFIED = "PointIdentified"
    DESIGN_SUSPECT = "DesignSuspect"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str
    replications: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value out of [0, 1]: {self.p_value}")


@dataclass(frozen=True)
class ProtocolOutcome:
    density: TestResult
    balance: tuple[tuple[str, TestResult], ...] | None
    verdict: Verdict


def _two_sided_p(t: float) -> float:
    # 2 Phi(-|t|) as one erfc, which keeps its digits far into the tail
    return math.erfc(abs(t) / math.sqrt(2.0))


def _jump_test(point, columns: np.ndarray, what: str) -> TestResult:
    """Full-sample jump over the bootstrap SD of the replicate jumps, normal reference.

    ``columns`` holds the (right, left) replicate columns whose difference is
    the jump, NaN where a fit failed.
    """
    values, n_failed = drop_failed(columns, what)
    reps = values[:, 0] - values[:, 1]
    se = sample_sd(reps)
    warnings: tuple[str, ...] = ()
    if n_failed:
        warnings += (f"{n_failed} bootstrap replicates failed and were dropped",)
    if point == 0.0:
        statistic = 0.0
    elif se > 0.0 and np.isfinite(se):
        statistic = float(point / se)
    else:
        warnings += ("degenerate bootstrap SE; p-value set to 1",)
        return TestResult(0.0, 1.0, "bootstrap", reps.size, warnings)
    return TestResult(statistic, _two_sided_p(statistic), "bootstrap", reps.size, warnings)


def _density_test(draws: BoundaryDraws) -> TestResult:
    be = draws.point
    return _jump_test(be.f_plus - be.f_minus, draws.draws[:, 2:4], "density-test")


def _balance_test(draws: BoundaryDraws, j: int) -> TestResult:
    name, jump = draws.covariates[j]
    return _jump_test(jump, draws.draws[:, 4 + 2 * j : 6 + 2 * j], f"{name!r} balance-test")


def density_discontinuity_test(
    data: Dataset,
    fit: FitConfig = FitConfig(),
    boot: BootstrapConfig = BootstrapConfig(),
) -> TestResult:
    """Two-sided test of a density jump at the cutoff.

    The statistic is (f_plus - f_minus) / SE with SE the bootstrap standard
    deviation of the estimated jump over ``boot.b`` row resamples; the
    p-value uses the standard normal reference. It is the density test of
    ``analyze`` without covariates.
    """
    return _density_test(bootstrap_boundary_replicates(data, boot, fit))


def balance_test(
    data: Dataset,
    covariate: str,
    fit: FitConfig = FitConfig(),
    boot: BootstrapConfig = BootstrapConfig(),
) -> TestResult:
    """Two-sided test of a jump in a pre-determined covariate's boundary mean:
    the balance test of ``analyze`` with this one covariate."""
    return _balance_test(bootstrap_boundary_replicates(data, boot, fit, (covariate,)), 0)


def protocol_from_draws(draws: BoundaryDraws, alpha: float) -> ProtocolOutcome:
    """Density test first; balance tests only if the density test accepts.

    Every test reads its columns of the one pass ``draws``, with a balance
    test per covariate of the pass. Verdicts: density rejected -> UseBounds
    (balance skipped entirely); density accepted and all balance tests
    accepted -> PointIdentified; otherwise DesignSuspect.
    """
    density = _density_test(draws)
    if density.p_value < alpha:
        return ProtocolOutcome(density=density, balance=None, verdict=Verdict.USE_BOUNDS)
    balance = tuple((name, _balance_test(draws, j)) for j, (name, _) in enumerate(draws.covariates))
    all_balanced = all(res.p_value >= alpha for _, res in balance)
    verdict = Verdict.POINT_IDENTIFIED if all_balanced else Verdict.DESIGN_SUSPECT
    return ProtocolOutcome(density=density, balance=balance, verdict=verdict)


def run_sequential_protocol(
    data: Dataset,
    boot: BootstrapConfig = BootstrapConfig(),
    fit: FitConfig = FitConfig(),
    covariates: tuple[str, ...] | None = None,
) -> ProtocolOutcome:
    """``protocol_from_draws`` on one bootstrap pass of ``data``, with a balance
    test for each of ``covariates`` (every covariate in the data when None)."""
    names = covariates if covariates is not None else tuple(sorted(data.covariates))
    return protocol_from_draws(bootstrap_boundary_replicates(data, boot, fit, names), boot.alpha)
