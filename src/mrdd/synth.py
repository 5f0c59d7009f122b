"""Synthetic data-generating processes with latent truth, and their oracles.

Generators return a :class:`TypedSample`: observable rows (running variable,
outcome, treatment) plus latent columns (the non-manipulated running
variable, a manipulation flag, and the behavioural type of each unit).
Matching population oracles deliver the exact boundary quantities by
quadrature so estimators and bounds can be verified end to end.

The mixture DGP ("appendix-d" in the CLI) draws a standard normal latent
score; units below the cutoff attempt manipulation with probability p and
land at an exponential draw whose density at zero-plus is lam. Outcomes are
binary with success curves Phi(x - 1) untreated and Phi(x - 0.5) treated.

The smooth-density counterexample shifts two latent segments upward by
different amounts so that the observed density stays smooth at the cutoff
while the conditional mean jumps: the middle segment deliberately lands
below the cutoff, breaking the one-sided landing restriction that the
detectable-manipulation taxonomy relies on.
"""

from __future__ import annotations

import csv
import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .boundary import Bandwidths, BoundaryEstimates, Dataset, SideCounts
from .bounds import TypeAssumption, crude_bounds, sharp_type2_bounds
from .errors import InvalidConfig, InvalidParams, InvalidWeights

CUTOFF = 0.0
#: Enforced minimum manipulation distance |x - x_star| for typed generators.
MIN_JUMP = 0.1
#: Landing rate of the typed generator's precise types (2 and 4).
EXP_RATE = 1.0
#: Gamma(2, scale) spread of the typed generator's imprecise types (1 and 3).
NOISE_SCALE = 0.25

TYPED_CSV_COLUMNS = ("x", "y", "d", "x_star", "manipulated", "t_type")

# numpy's standard normal and exponential draws are all below 64 in size, so a
# draw times a scale s is finite whenever 64 * s is
_DRAW_BOUND = 64.0


def _mu_d(x, d):
    """Success probability of the binary outcome given the latent score."""
    # imported here so that analyze and plotdata never load scipy
    from scipy import special

    return special.ndtr(np.asarray(x) - (0.5 if d == 1 else 1.0))


def _norm_pdf(x):
    """Standard normal density, the closed form ``scipy.stats.norm.pdf`` evaluates."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2 / 2.0) / np.sqrt(2.0 * np.pi)


def _check_size(n: int, seed: int) -> None:
    """The sample size and seed every generator takes."""
    if n < 1:
        raise InvalidParams(f"n must be at least 1, got {n}")
    if seed < 0:
        raise InvalidParams(f"seed must be nonnegative, got {seed}")


def _check_mixture(p: float, lam: float) -> None:
    """The mixture DGP's attempt probability and landing density at zero-plus;
    a landing is a standard exponential draw times 1 / lam."""
    if not (0.0 <= p <= 1.0):
        raise InvalidParams(f"p must lie in [0, 1], got {p}")
    if not (0.0 < lam < np.inf and np.isfinite(_DRAW_BOUND / lam)):
        raise InvalidParams(f"lambda must be finite and at least 3.6e-307, got {lam}")


@dataclass(frozen=True)
class TypedSample:
    """Observable rows plus the latent truth used by oracle checks."""

    data: Dataset
    x_star: np.ndarray
    manipulated: np.ndarray
    t_type: np.ndarray

    def manipulation_fraction(self) -> float:
        return float(np.mean(self.manipulated))

    def type_shares(self) -> dict[int, float]:
        values, counts = np.unique(self.t_type, return_counts=True)
        return {int(v): float(c) / self.t_type.size for v, c in zip(values, counts)}


@dataclass(frozen=True)
class OracleRow:
    """Population boundary quantities and bounds for one (p, lam) point."""

    p: float
    lam: float
    mu_plus: float
    mu_minus: float
    r: float
    theta_true: float
    crude_lower: float
    crude_upper: float
    sharp_lower: float
    sharp_upper: float


def gen_appendix_d(p: float, lam: float, n: int, seed: int) -> TypedSample:
    """Draw a sample from the mixture DGP.

    Latent score X* ~ N(0, 1); a unit manipulates iff X* < 0 and an
    independent uniform falls below p, in which case the observed score is
    an independent Exponential(rate=lam) draw (so its density at 0+ equals
    lam and every manipulator lands at or above the cutoff). Binary
    potential outcomes are 1{mu_d(X*) >= eps} with eps uniform.
    """
    _check_size(n, seed)
    _check_mixture(p, lam)
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)
    eps = rng.uniform(size=n)
    u = rng.uniform(size=n)
    v = rng.exponential(scale=1.0 / lam, size=n)
    keep = (x_star >= CUTOFF) | (u >= p)
    x = np.where(keep, x_star, v)
    d = (x >= CUTOFF).astype(float)
    y1 = (_mu_d(x_star, 1) >= eps).astype(float)
    y0 = (_mu_d(x_star, 0) >= eps).astype(float)
    y = np.where(d == 1.0, y1, y0)
    manipulated = ~keep
    t_type = np.where(manipulated, 2, 0).astype(np.int8)
    data = Dataset(xs=x, ys=y, cutoff=CUTOFF, y_low=0.0, y_high=1.0, d=d)
    return TypedSample(data=data, x_star=x_star, manipulated=manipulated, t_type=t_type)


def _tail_integral(d: int) -> float:
    """2 * integral of mu_d(x) phi(x) over (-inf, 0), by adaptive quadrature."""
    # imported here so that only the oracle pays for scipy.integrate
    from scipy import integrate

    val, _ = integrate.quad(lambda x: _mu_d(x, d) * _norm_pdf(x), -8.0, 0.0, epsabs=1e-8)
    return 2.0 * val


def oracle_appendix_d(p: float, lam: float) -> OracleRow:
    """Exact boundary quantities and bounds for the mixture DGP.

    The one-sided mean above the cutoff mixes the non-manipulated value
    mu_1(0) (weight phi(0)) with the manipulators' average outcome, a
    normal tail integral (weight 0.5 * lam * p). The bounds come from the
    estimators' own interval algebra applied to these population values:
    ``crude_bounds`` under type 2 for the crude interval and
    ``sharp_type2_bounds`` on the binary outcome distribution at the right
    boundary for the sharp one.
    p = 1 is excluded: nobody stays below the cutoff, so f(c-) = 0.
    """
    _check_mixture(p, lam)
    if p == 1.0:
        raise InvalidParams("p must lie below 1 for the oracle: nobody stays below the cutoff")
    phi0 = float(_norm_pdf(0.0))
    f_minus = (1.0 - p) * phi0
    f_plus = phi0 + 0.5 * lam * p
    r = f_minus / f_plus
    mu_plus = (phi0 * float(_mu_d(0.0, 1)) + 0.5 * lam * p * _tail_integral(1)) / f_plus
    mu_minus = float(_mu_d(0.0, 0))
    theta_true = float(_mu_d(0.0, 1) - _mu_d(0.0, 0))
    be = BoundaryEstimates(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        f_plus=f_plus,
        f_minus=f_minus,
        r=r,
        bandwidths=Bandwidths(),
        n_effective=SideCounts(0, 0, 0, 0),
    )
    crude = crude_bounds(be, 0.0, 1.0, TypeAssumption.TYPE2)
    # binary outcome at c+: weight 1 - mu_plus on y = 0, mu_plus on y = 1
    sharp = sharp_type2_bounds([1.0 - mu_plus, mu_plus], [0.0, 1.0], be, 0.0, 1.0)
    return OracleRow(
        p=p,
        lam=lam,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        r=r,
        theta_true=theta_true,
        crude_lower=crude.lower,
        crude_upper=crude.upper,
        sharp_lower=sharp.lower,
        sharp_upper=sharp.upper,
    )


def gen_counterexample_e(n: int, seed: int, noise_sd: float = 0.0) -> TypedSample:
    """Smooth-density counterexample: monotone manipulation, jumping mean.

    X* is uniform on [-1, 1]; units in [-1, -2/3) shift up by 1 (landing
    above the cutoff) and units in [-2/3, -1/3) shift up by 1/3 (landing
    just below it), so the two displaced segments refill each half
    neighbourhood and the observed density stays smooth at zero while the
    conditional mean jumps from -1/6 to -1/2. Outcomes are Y = X* plus
    optional noise. Manipulated units are labelled type 2 even though the
    middle segment's below-cutoff landing violates the one-sided landing
    rule; that violation is the entire point of this generator.
    """
    _check_size(n, seed)
    if not (noise_sd >= 0.0 and np.isfinite(_DRAW_BOUND * noise_sd)):
        raise InvalidParams(f"noise_sd must lie in [0, 2.8e306], got {noise_sd}")
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-1.0, 1.0, size=n)
    x = np.where(
        x_star < -2.0 / 3.0,
        x_star + 1.0,
        np.where(x_star < -1.0 / 3.0, x_star + 1.0 / 3.0, x_star),
    )
    y = x_star.copy()
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(n)
    d = (x >= CUTOFF).astype(float)
    manipulated = x != x_star
    t_type = np.where(manipulated, 2, 0).astype(np.int8)
    data = Dataset(xs=x, ys=y, cutoff=CUTOFF, d=d)
    return TypedSample(data=data, x_star=x_star, manipulated=manipulated, t_type=t_type)


def _rejection_exponential(rng, x_star):
    """Exponential landings redrawn until they clear MIN_JUMP from x_star."""
    x = rng.exponential(scale=1.0 / EXP_RATE, size=x_star.size)
    bad = np.abs(x - x_star) <= MIN_JUMP
    while np.any(bad):
        x[bad] = rng.exponential(scale=1.0 / EXP_RATE, size=int(bad.sum()))
        bad = np.abs(x - x_star) <= MIN_JUMP
    return x


def gen_typed(type_shares: dict[int, float], n: int, seed: int, attempt_prob: float = 0.5) -> TypedSample:
    """Draw a sample mixing the five behavioural types.

    Type 0 never manipulates. Type 1 jumps a symmetric two-sided distance,
    independently of the latent score and the outcome. Type 2 attempts only
    from below the cutoff and lands precisely above it. Type 3 attempts only
    from below but its landing is a continuous upward shift that may fail to
    cross. Type 4 lands precisely above the cutoff with an attempt
    probability that ignores the latent score. Types 1-4 attempt with
    probability ``attempt_prob``, and every manipulation moves x more than
    MIN_JUMP. Outcomes follow the shared binary model, so the cutoff effect
    is Phi(-0.5) - Phi(-1).
    """
    _check_size(n, seed)
    if not type_shares:
        raise InvalidWeights("type_shares must not be empty")
    keys = sorted(type_shares)
    if any(k not in (0, 1, 2, 3, 4) for k in keys):
        raise InvalidWeights(f"type labels must be 0..4, got {keys}")
    weights = np.array([type_shares[k] for k in keys], dtype=float)
    if not np.all(weights >= 0):
        raise InvalidWeights(f"type shares must be nonnegative numbers, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise InvalidWeights(f"type shares must sum to 1, got {weights.sum()}")
    if not (0.0 <= attempt_prob <= 1.0):
        raise InvalidParams(f"attempt_prob must lie in [0, 1], got {attempt_prob}")
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)
    eps = rng.uniform(size=n)
    attempt_u = rng.uniform(size=n)
    t_type = np.asarray(rng.choice(keys, size=n, p=weights), dtype=np.int8)

    x = x_star.copy()
    attempts = attempt_u < attempt_prob
    below = x_star < CUTOFF

    m1 = (t_type == 1) & attempts
    if np.any(m1):
        sign = np.where(rng.uniform(size=int(m1.sum())) < 0.5, -1.0, 1.0)
        jump = MIN_JUMP + rng.gamma(2.0, NOISE_SCALE, size=int(m1.sum()))
        x[m1] = x_star[m1] + sign * jump

    m2 = (t_type == 2) & attempts & below
    if np.any(m2):
        x[m2] = _rejection_exponential(rng, x_star[m2])

    m3 = (t_type == 3) & attempts & below
    if np.any(m3):
        x[m3] = x_star[m3] + MIN_JUMP + rng.gamma(2.0, NOISE_SCALE, size=int(m3.sum()))

    m4 = (t_type == 4) & attempts
    if np.any(m4):
        x[m4] = _rejection_exponential(rng, x_star[m4])

    d = (x >= CUTOFF).astype(float)
    y1 = (_mu_d(x_star, 1) >= eps).astype(float)
    y0 = (_mu_d(x_star, 0) >= eps).astype(float)
    y = np.where(d == 1.0, y1, y0)
    manipulated = x != x_star
    data = Dataset(xs=x, ys=y, cutoff=CUTOFF, y_low=0.0, y_high=1.0, d=d)
    return TypedSample(data=data, x_star=x_star, manipulated=manipulated, t_type=t_type)


def write_typed_csv(ts: TypedSample, path: str) -> None:
    """Write a TypedSample in the CLI ingestion schema plus latent columns.

    Floats are written with repr so a round trip through ``ingest`` restores
    them exactly; output is written atomically (:func:`atomic_open`).
    """
    data = ts.data
    d = data.d if data.d is not None else (data.xs >= data.cutoff).astype(float)

    # whole columns as Python numbers; csv writes a float as its repr
    def floats(values):
        return np.asarray(values, dtype=float).tolist()

    def ints(values):
        return np.asarray(values).astype(int).tolist()

    columns = (
        floats(data.xs), floats(data.ys), ints(d), floats(ts.x_star), ints(ts.manipulated), ints(ts.t_type)
    )
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(TYPED_CSV_COLUMNS)
        writer.writerows(zip(*columns))


@contextmanager
def atomic_open(path: str):
    """A text file, with no newline translation, that replaces ``path`` when the block ends.

    The text goes to ``path`` + ".tmp" first, and that file is removed if
    the block or the replace fails. A path that cannot be written, a
    directory included, raises InvalidConfig naming it and the operating
    system's reason before the block runs.
    """
    if os.path.isdir(path):
        raise InvalidConfig(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    tmp = f"{path}.tmp"
    created = False
    try:
        with open(tmp, "w", newline="") as fh:
            created = True
            yield fh
        os.replace(tmp, path)
    except OSError as err:
        raise InvalidConfig(f"cannot write {path}: {err.strerror or err}") from None
    finally:
        if created and os.path.exists(tmp):
            os.remove(tmp)
