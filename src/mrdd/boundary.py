"""Boundary statistics at the cutoff: one-sided means, densities, and their ratio.

``estimate_boundary`` assembles the five numbers every bound and test
consumes: mu_plus, mu_minus, f_plus, f_minus and r = f_minus / f_plus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import (
    DataError,
    InvalidConfig,
    InvalidInputs,
    InvalidOutcomeRange,
)
from .localfit import (
    FitSpec,
    KernelKind,
    Side,
    boundary_density,
    local_poly_fit,
    rot_bandwidth,
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
    """Per-side, per-object bandwidths; None means rule-of-thumb default."""

    mean_left: float | None = None
    mean_right: float | None = None
    dens_left: float | None = None
    dens_right: float | None = None

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
    """Fit specification pair (means and densities) plus bandwidth overrides."""

    mean_order: int = 1
    density_order: int = 1
    kernel: KernelKind = KernelKind.TRIANGULAR
    bandwidths: Bandwidths = Bandwidths()

    def resolved(self, xs: np.ndarray, cutoff: float) -> "FitConfig":
        """The same configuration with every bandwidth filled in."""
        return replace(self, bandwidths=self.bandwidths.resolved(xs, cutoff))


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


def _labeled(side: str, stage: str, err: DataError) -> DataError:
    err.args = (f"{side} {stage}: {err.args[0]}",) + err.args[1:]
    if hasattr(err, "side"):
        err.side = side
    return err


def _boundary_from_arrays(
    xs: np.ndarray,
    ys: np.ndarray,
    cutoff: float,
    config: FitConfig,
    bw: Bandwidths,
) -> tuple[float, float, float, float, SideCounts, tuple[str, ...]]:
    """Per-row boundary fits of one sample; the core of ``estimate_boundary``."""
    notes: list[str] = []

    def mean_fit(side, h):
        spec = FitSpec(order=config.mean_order, bandwidth=h, kernel=config.kernel, side=side)
        try:
            return local_poly_fit(xs, ys, cutoff, spec)
        except DataError as err:
            raise _labeled(side.value, "mean fit", err)

    def dens_fit(side, h):
        spec = FitSpec(order=config.density_order, bandwidth=h, kernel=config.kernel, side=side)
        try:
            dens, clipped = boundary_density(xs, cutoff, spec)
        except DataError as err:
            raise _labeled(side.value, "density fit", err)
        if clipped:
            notes.append(f"density_clipped_{side.value}")
        return dens

    fit_minus = mean_fit(Side.LEFT, bw.mean_left)
    fit_plus = mean_fit(Side.RIGHT, bw.mean_right)
    f_minus = dens_fit(Side.LEFT, bw.dens_left)
    f_plus = dens_fit(Side.RIGHT, bw.dens_right)
    r = f_minus / f_plus
    if r > 1.0:
        notes.append("density_ratio_above_one")
    counts = SideCounts(
        mean_left=fit_minus.effective_n,
        mean_right=fit_plus.effective_n,
        dens_left=int(np.count_nonzero((xs >= cutoff - bw.dens_left) & (xs < cutoff))),
        dens_right=int(np.count_nonzero((xs >= cutoff) & (xs <= cutoff + bw.dens_right))),
    )
    return (
        float(fit_plus.coefficients[0]),
        float(fit_minus.coefficients[0]),
        f_plus,
        f_minus,
        counts,
        tuple(notes),
    )


def estimate_boundary(data: Dataset, config: FitConfig = FitConfig()) -> BoundaryEstimates:
    """Estimate (mu_plus, mu_minus, f_plus, f_minus, r) at the cutoff.

    Means come from one-sided local polynomial intercepts on (x, y);
    densities from one-sided local CDF fits. Missing bandwidths default to
    the rule of thumb per side. A warning flag is recorded when the density
    ratio exceeds one, which contradicts the one-sided sorting direction
    f(c-) <= f(c+) maintained by the bounds.

    Raises per-side labeled InsufficientData / SingularDesign /
    DegenerateSupport when a side cannot be estimated.
    """
    bw = config.bandwidths.resolved(data.xs, data.cutoff)
    mu_plus, mu_minus, f_plus, f_minus, counts, notes = _boundary_from_arrays(
        data.xs, data.ys, data.cutoff, config, bw
    )
    return BoundaryEstimates(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        f_plus=f_plus,
        f_minus=f_minus,
        r=f_minus / f_plus,
        bandwidths=bw,
        n_effective=counts,
        warnings=notes,
    )
