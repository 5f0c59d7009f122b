"""Boundary statistics at the cutoff: one-sided means, densities, and their ratio.

``estimate_boundary`` assembles the five numbers every bound and test
consumes: mu_plus, mu_minus, f_plus, f_minus and r = f_minus / f_plus, as
the all-ones replicate of the bootstrap engine's plan (``sample_estimates``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from ._bootstrap import Plan, build_plan, evaluate
from .errors import (
    InvalidConfig,
    InvalidInputs,
    InvalidOutcomeRange,
)
from .localfit import (
    DENSITY_FLOOR,
    FitSpec,
    KernelKind,
    Side,
    check_order,
    rot_bandwidth,
    support_error,
)


def _require_finite(column: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInputs(
            f"column {column!r} has a non-finite value ({values[bad[0]]}) at index {bad[0]}"
        )


def _require_same_length(column: str, values: np.ndarray, xs: np.ndarray) -> None:
    if values.shape != xs.shape:
        raise InvalidInputs(
            f"column {column!r} has shape {values.shape}, column 'x' has {xs.shape}"
        )


@dataclass(frozen=True)
class Dataset:
    """Observations plus the design constants.

    ``xs`` is the running variable, ``ys`` the outcome, ``d`` an optional
    binary treatment column and ``covariates`` a name -> column mapping.
    ``y_low``/``y_high`` declare the logical outcome range used by the
    bounds; both may be None when only tests are run. Every value must be
    finite, every column as long as ``xs`` and ``d`` binary; a violation
    raises InvalidInputs naming the column.
    """

    xs: np.ndarray
    ys: np.ndarray
    cutoff: float
    y_low: float | None = None
    y_high: float | None = None
    d: np.ndarray | None = None
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1:
            raise InvalidInputs(f"column 'x' must be 1-d, got shape {xs.shape}")
        _require_same_length("y", ys, xs)
        _require_finite("x", xs)
        _require_finite("y", ys)
        if not np.isfinite(self.cutoff):
            raise InvalidConfig("cutoff must be finite")
        if self.d is not None:
            d = np.asarray(self.d, dtype=float)
            object.__setattr__(self, "d", d)
            _require_same_length("d", d, xs)
            _require_finite("d", d)
            if not np.all((d == 0) | (d == 1)):
                raise InvalidInputs("treatment column 'd' must be binary 0/1")
        covs = {}
        for name, col in self.covariates.items():
            col = np.asarray(col, dtype=float)
            _require_same_length(name, col, xs)
            _require_finite(name, col)
            covs[name] = col
        object.__setattr__(self, "covariates", covs)
        if self.y_low is not None and self.y_high is not None:
            if self.y_low > self.y_high:
                raise InvalidOutcomeRange(f"y_low {self.y_low} > y_high {self.y_high}")
            if ys.size and (ys.min() < self.y_low or ys.max() > self.y_high):
                raise InvalidOutcomeRange(
                    f"observed outcomes [{ys.min()}, {ys.max()}] fall outside "
                    f"the declared range [{self.y_low}, {self.y_high}]"
                )

    @property
    def n(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class Bandwidths:
    """Per-side, per-object bandwidths; None means rule-of-thumb default.

    A given bandwidth that is not positive and finite raises InvalidConfig.
    """

    mean_left: float | None = None
    mean_right: float | None = None
    dens_left: float | None = None
    dens_right: float | None = None

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if value is not None and not (value > 0 and np.isfinite(value)):
                raise InvalidConfig(f"bandwidth {item.name} must be positive and finite, got {value}")

    def resolved(self, xs: np.ndarray, cutoff: float) -> "Bandwidths":
        """Fill missing entries with rot_bandwidth on the matching side.

        Means and densities share one rule-of-thumb value per side, so each
        side's is computed at most once.
        """
        rot: dict[Side, float] = {}

        def pick(value, side):
            if value is not None:
                return value
            if side not in rot:
                rot[side] = rot_bandwidth(xs, side, cutoff)
            return rot[side]

        return Bandwidths(
            mean_left=pick(self.mean_left, Side.LEFT),
            mean_right=pick(self.mean_right, Side.RIGHT),
            dens_left=pick(self.dens_left, Side.LEFT),
            dens_right=pick(self.dens_right, Side.RIGHT),
        )


@dataclass(frozen=True)
class SideCounts:
    mean_left: int
    mean_right: int
    dens_left: int
    dens_right: int


@dataclass(frozen=True)
class FitConfig:
    """Order, kernel and bandwidths shared by the four one-sided boundary fits.

    The means and the densities use the same polynomial order; each
    density's CDF fit is one degree above it.
    """

    order: int = 1
    kernel: KernelKind = KernelKind.TRIANGULAR
    bandwidths: Bandwidths = Bandwidths()

    def __post_init__(self):
        check_order(self.order)

    def resolved(self, xs: np.ndarray, cutoff: float) -> "FitConfig":
        """The same configuration with every bandwidth filled in."""
        return replace(self, bandwidths=self.bandwidths.resolved(xs, cutoff))

    def mean_spec(self, side: Side) -> FitSpec:
        """The one-sided mean fit on ``side``; needs resolved bandwidths."""
        bw = self.bandwidths
        return self._spec(bw.mean_left if side is Side.LEFT else bw.mean_right, side)

    def density_spec(self, side: Side) -> FitSpec:
        """The one-sided density fit on ``side``; needs resolved bandwidths."""
        bw = self.bandwidths
        return self._spec(bw.dens_left if side is Side.LEFT else bw.dens_right, side)

    def _spec(self, bandwidth: float | None, side: Side) -> FitSpec:
        if bandwidth is None:
            raise InvalidConfig("resolve the bandwidths before building a fit")
        return FitSpec(self.order, bandwidth, self.kernel, side)


@dataclass(frozen=True)
class BoundaryEstimates:
    """The five boundary statistics plus bookkeeping.

    ``r`` always equals ``f_minus / f_plus``; it is reported raw even above
    one (the bound operations decide what to do with that).
    """

    mu_plus: float
    mu_minus: float
    f_plus: float
    f_minus: float
    r: float
    bandwidths: Bandwidths
    n_effective: SideCounts
    warnings: tuple[str, ...] = ()


def estimate_boundary(data: Dataset, config: FitConfig = FitConfig()) -> BoundaryEstimates:
    """Estimate (mu_plus, mu_minus, f_plus, f_minus, r) at the cutoff.

    Means come from one-sided local polynomial intercepts on (x, y);
    densities from one-sided local CDF fits. Missing bandwidths default to
    the rule of thumb per side. A warning flag is recorded when the density
    ratio exceeds one, against the direction f(c-) <= f(c+) the bounds
    maintain. A side that cannot be estimated raises a labeled DataError.
    """
    fit = config.resolved(data.xs, data.cutoff)
    return sample_estimates(build_plan(data.xs, data.cutoff, fit, (data.ys,)), fit)[0]


def sample_estimates(plan: Plan, fit: FitConfig) -> tuple[BoundaryEstimates, np.ndarray]:
    """The boundary statistics of the sample ``plan`` was built on with ``fit``,
    and the row of ``evaluate`` on all-ones counts they come from: the
    moment equations every replicate solves. The first fit that cannot be
    made raises its labeled DataError."""
    row = evaluate(plan, np.ones((1, plan.by_index.size)))[0]
    mu_plus, mu_minus, f_plus, f_minus = (float(v) for v in row[:4])
    right, left = plan.sides
    # the densities first, so a sample the density test cannot fit reports that first
    checks = (
        (Side.LEFT, True, fit.density_spec(Side.LEFT), left.density_counts, f_minus),
        (Side.RIGHT, True, fit.density_spec(Side.RIGHT), right.density_counts, f_plus),
        (Side.LEFT, False, fit.mean_spec(Side.LEFT), left.mean_counts, mu_minus),
        (Side.RIGHT, False, fit.mean_spec(Side.RIGHT), right.mean_counts, mu_plus),
    )
    for side, cdf, spec, counts, value in checks:
        err = support_error(spec, counts, cdf, solved=not np.isnan(value))
        if err is not None:
            err.args = (f"{side.value} {'density' if cdf else 'mean'} fit: {err}",)
            raise err
    # a fit at the floor was floored: its slope was not positive
    notes = [f"density_clipped_{side}" for side, f in (("left", f_minus), ("right", f_plus)) if f == DENSITY_FLOOR]
    r = f_minus / f_plus
    if r > 1.0:
        notes.append("density_ratio_above_one")
    counts = SideCounts(left.mean_counts[0], right.mean_counts[0], left.density_counts[0], right.density_counts[0])
    return BoundaryEstimates(mu_plus, mu_minus, f_plus, f_minus, r, fit.bandwidths, counts, tuple(notes)), row
