"""Paper-check oracles: independent references that the tests compare the
package against, and that ``mrdd analyze`` never runs.

``brute_force_trimming`` fills a discrete distribution's lowest (highest)
mass by greedy enumeration; ``weighted_trimmed_means`` and
``binary_sharp_gfuncs`` are the vectorised and binary closed forms of the
same extreme trimmed means; ``verify_lemma_moments`` checks the boundary
mixture identities of a ``TypedSample`` on latent-conditional windows;
``lstsq_level`` is a local polynomial fit by least squares on the weighted
design, against the moment equations the package solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mrdd.bounds import _lower_partial_sums, _sorted_window
from mrdd.errors import InsufficientData, InvalidConfig, SingularDesign
from mrdd.localfit import FitSpec, local_weights
from mrdd.synth import TypedSample


def lstsq_level(x, y, eval_point: float, spec: FitSpec) -> float:
    """The level at ``eval_point`` of the kernel-weighted polynomial fit of y
    on x, by ``np.linalg.lstsq`` on the square-root-weighted design.

    Raises InsufficientData when fewer rows than coefficients carry weight,
    and SingularDesign when the design's numerical rank is below that.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    u, w, keep = local_weights(x, eval_point, spec)
    need = spec.order + 1
    if np.count_nonzero(keep) < need:
        raise InsufficientData(f"{np.count_nonzero(keep)} weighted rows, need {need}", side=spec.side.value)
    sw = np.sqrt(w[keep])
    design = np.vander(u[keep], need, increasing=True) * sw[:, None]
    beta, _, rank, _ = np.linalg.lstsq(design, y[keep] * sw, rcond=None)
    if rank < need:
        raise SingularDesign(f"design rank {rank} < {need}", side=spec.side.value)
    # the intercept in u powers is the level in x powers too
    return float(beta[0])


def binary_sharp_gfuncs(mu_plus: float, tau: float) -> tuple[float, float]:
    """Closed-form extreme trimmed means for a binary outcome.

    g_low = max{0, (mu+ - (1 - tau)) / tau} and g_high = min{1, mu+ / tau}
    for tau > 0; the vacuous tau = 0 case returns (0, 1).
    """
    if not (0.0 <= mu_plus <= 1.0):
        raise InvalidConfig(f"mu_plus must lie in [0, 1], got {mu_plus}")
    if not (0.0 <= tau <= 1.0):
        raise InvalidConfig(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return 0.0, 1.0
    g_low = max(0.0, (mu_plus - (1.0 - tau)) / tau)
    g_high = min(1.0, mu_plus / tau)
    return g_low, g_high


def weighted_trimmed_means(ys, weights, tau, y_low: float, y_high: float):
    """Extreme means of a tau-mass sub-population of a weighted sample.

    The sample is sorted by outcome; the lowest (highest) mass tau is taken,
    fractionally weighting the boundary observation, and averaged. tau = 0
    returns the vacuous (y_low, y_high) pair. Vectorised over tau.
    """
    scalar = np.ndim(tau) == 0
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(taus < -1e-12) or np.any(taus > 1 + 1e-12):
        raise InvalidConfig("tau values must lie in [0, 1]")
    taus = np.clip(taus, 0.0, 1.0)
    y_sorted, w_sorted = _sorted_window(ys, weights)
    cum = np.cumsum(w_sorted)
    cum_y = np.cumsum(w_sorted * y_sorted)
    total_y = cum_y[-1]

    pos = taus > 0.0
    safe = np.where(pos, taus, 1.0)
    g_low = np.where(
        pos,
        _lower_partial_sums(cum, cum_y, y_sorted, taus) / safe,
        y_low,
    )
    g_high = np.where(
        pos,
        (total_y - _lower_partial_sums(cum, cum_y, y_sorted, 1.0 - taus)) / safe,
        y_high,
    )
    if scalar:
        return float(g_low[0]), float(g_high[0])
    return g_low, g_high


@dataclass(frozen=True)
class LemmaMomentReport:
    """Window-mean residuals of the mixture identities, plus raw pieces.

    ``residuals`` holds absolute differences between the two sides of each
    applicable identity; ``estimates`` the underlying window quantities,
    including the raw density and mean jumps.
    """

    residuals: dict[str, float]
    estimates: dict[str, float]


def verify_lemma_moments(
    ts: TypedSample, window: float, point_effect: float | None = None
) -> LemmaMomentReport:
    """Check the boundary mixture identities on latent-conditional windows.

    Uses one-sided windows of the given width around the cutoff for both
    the observed and the latent running variable. Identities that need
    types absent from the sample are skipped; the type-2 family needs all
    manipulators to be type 2 style (and likewise for type 4).

    When ``point_effect`` (the generator's true cutoff effect) is supplied,
    a ``continuity_link`` residual is added: whenever the estimated density
    jump is insignificant (under three Monte Carlo sigmas), a smooth density
    implies point identification, so the observed mean jump must match the
    true effect. A significant density jump imposes no restriction and the
    residual is zero. DGPs that break the one-sided manipulation
    restrictions can fail this check while passing the density test; that
    failure mode is exactly what the smooth-density counterexample shows.
    """
    if window <= 0:
        raise InvalidConfig(f"window must be positive, got {window}")
    data = ts.data
    c = data.cutoff
    x, y = data.xs, data.ys
    xs_star, manip = ts.x_star, ts.manipulated

    right = (x >= c) & (x < c + window)
    left = (x >= c - window) & (x < c)
    star_right = (xs_star >= c) & (xs_star < c + window)
    star_left = (xs_star >= c - window) & (xs_star < c)

    def mean(mask):
        return float(y[mask].mean()) if np.any(mask) else 0.0

    n = x.size
    f_plus = float(np.count_nonzero(right)) / (n * window)
    f_minus = float(np.count_nonzero(left)) / (n * window)
    f_star = float(np.count_nonzero(star_right)) / (n * window)
    mu_plus, mu_minus = mean(right), mean(left)

    est = {
        "f_plus": f_plus,
        "f_minus": f_minus,
        "f_star": f_star,
        "mu_plus": mu_plus,
        "mu_minus": mu_minus,
        "density_jump": f_plus - f_minus,
        "mean_jump": mu_plus - mu_minus,
        "manipulation_fraction": float(np.mean(manip)),
    }

    res: dict[str, float] = {}
    present = set(np.unique(ts.t_type).tolist())
    p_manip_right = float(np.mean(manip[right])) if np.any(right) else 0.0
    if f_plus <= 0.0:
        raise InsufficientData(
            f"no observations within {window} above the cutoff; widen the window",
            side="right",
        )

    if present <= {0, 2}:
        # manipulators land above and originate below, so the latent density
        # fills f(c+) from below: P(manip | X=c+) = 1 - f*(c)/f(c+)
        w_star = f_star / f_plus if f_plus > 0 else 0.0
        m_star_right = mean(star_right)
        m_manip_right = mean(right & manip)
        res["mix_plus"] = abs(mu_plus - (w_star * m_star_right + (1.0 - w_star) * m_manip_right))
        res["collapse_minus"] = abs(mu_minus - mean(star_left & ~manip))
        res["fraction_manipulated_right"] = abs(p_manip_right - (1.0 - f_star / f_plus))
        if f_star > 0:
            p_manip_star_left = float(np.mean(manip[star_left])) if np.any(star_left) else 0.0
            res["fraction_manipulated_star_left"] = abs(
                p_manip_star_left - (1.0 - f_minus / f_star)
            )

    if present <= {0, 4}:
        # sorting-free precise manipulation: the non-manipulated density at
        # the cutoff equals f(c-), so P(manip | X=c+) = 1 - f(c-)/f(c+)
        w_keep = f_minus / f_plus if f_plus > 0 else 0.0
        m_keep_right = mean(star_right & ~manip)
        m_manip_right = mean(right & manip)
        res["mix_plus_sorting_free"] = abs(
            mu_plus - (w_keep * m_keep_right + (1.0 - w_keep) * m_manip_right)
        )
        res["collapse_minus"] = abs(mu_minus - mean(star_left & ~manip))
        res["fraction_manipulated_right_sorting_free"] = abs(
            p_manip_right - (1.0 - f_minus / f_plus)
        )

    if present <= {0, 1}:
        res["density_continuity"] = abs(f_plus - f_minus)

    # Monte Carlo scale of the density jump (Poisson window counts)
    se_f = float(
        np.sqrt(max(f_plus, 1e-12) / (n * window)) + np.sqrt(max(f_minus, 1e-12) / (n * window))
    )
    est["density_jump_se"] = se_f
    if point_effect is not None:
        density_jumps = abs(f_plus - f_minus) > 3.0 * se_f
        res["continuity_link"] = 0.0 if density_jumps else abs((mu_plus - mu_minus) - point_effect)
    return LemmaMomentReport(residuals=res, estimates=est)


def brute_force_trimming(values, probs, tau: float) -> tuple[float, float]:
    """Exact extreme means of a tau-mass sub-distribution, by greedy enumeration.

    Sorts the atoms and fills mass from the bottom (top), splitting the
    boundary atom. Serves as the independent oracle for the trimmed-mean
    machinery; tau = 1 returns the plain mean twice.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
        raise ValueError("need matching nonempty value/probability arrays")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    order = np.argsort(values, kind="stable")
    v, q = values[order], probs[order]

    def fill(vals, masses):
        taken = 0.0
        acc = 0.0
        for val, mass in zip(vals, masses):
            take = min(mass, tau - taken)
            acc += take * val
            taken += take
            if taken >= tau - 1e-15:
                break
        return acc / tau

    g_low = fill(v, q)
    g_high = fill(v[::-1], q[::-1])
    return float(g_low), float(g_high)
