"""The JSON report of ``mrdd analyze``, declared once: ``BLOCK_FIELDS``
gives its block's fields in the order the report writes them, each with
its JSON type, whether it may be null and the set it must contain.
``build_report`` starts the block from that table, ``_check_finite`` reads
from it which numbers must be finite and ``_check_sets`` the intervals and
their containments.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .boundary import Dataset, sample_means, sharp_window
from .bounds import BoundsStatus, TypeAssumption, clamp_interval, fuzzy_bounds, sharp_type2_bounds, snap_tolerance

if TYPE_CHECKING:  # cli imports this module when analyze runs
    from .cli import RunConfig

REPORT_SCHEMA_VERSION = 1


class Field(NamedTuple):
    """A field of the report's block. ``kind`` is its JSON type, or
    ``interval`` for a [lower, upper] pair of numbers; ``contains`` names
    the interval field it must contain."""

    name: str
    kind: str
    nullable: bool = False
    contains: str | None = None


BLOCK_FIELDS = (
    Field("order", "integer"),
    Field("discontinuity_t", "number"),
    Field("discontinuity_p", "number"),
    Field("r", "number"),
    Field("bandwidths", "object"),
    Field("n_effective", "object"),
    Field("mu_plus", "number"),
    Field("mu_minus", "number"),
    Field("f_plus", "number"),
    Field("f_minus", "number"),
    Field("point_estimate", "number"),
    Field("point_se", "number"),
    # under type 2 and the mixture only; the check reads the assumption
    Field("identified_set", "interval", contains="sharp_set"),
    Field("identified_set_status", "string"),
    Field("identified_set_clamped", "boolean"),
    Field("target", "string"),
    # an r mode whose replicate ends pass the float range, near a huge outcome
    # range, has a non-finite SE, written with its CI and c_bar as null; c_bar
    # is also null at an alpha below 2^-53
    Field("ci_fixed_r", "interval", True, "identified_set"),
    Field("se_lower_fixed_r", "number", True),
    Field("se_upper_fixed_r", "number", True),
    Field("c_bar_fixed_r", "number", True),
    Field("ci_random_r", "interval", True, "identified_set"),
    Field("se_lower_random_r", "number", True),
    Field("se_upper_random_r", "number", True),
    Field("c_bar_random_r", "number", True),
    # null without --sharp or --fuzzy; a degenerate fuzzy set is null too
    Field("sharp_set", "interval", True),
    Field("sharp_status", "string", True),
    Field("fuzzy_set", "interval", True),
    Field("fuzzy_status", "string", True),
)


def _nulls_for_non_finite(value):
    """``value`` with every nan or inf float, however nested, replaced by None."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _nulls_for_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulls_for_non_finite(item) for item in value]
    return value


def json_text(payload: dict) -> str:
    """Strict JSON: a non-finite number becomes null."""
    return json.dumps(_nulls_for_non_finite(payload), indent=2, allow_nan=False) + "\n"


def build_report(cfg: RunConfig, data: Dataset) -> dict:
    """Run the full pipeline and assemble the JSON-ready report.

    One bootstrap pass, whose plan fills in the bandwidths, serves the
    density test, the balance tests and both r modes. Every fit comes from
    that pass's plan: the point estimates are its all-ones replicate, the
    sharp bound trims its right mean window, and the fuzzy bound's d+ and
    d- solve its mean-fit moment equations on the sample. The identified
    and sharp sets and both confidence intervals are clipped to the logical
    range of an effect; the fuzzy set bounds a ratio, which that range does
    not cap, and is reported as ``fuzzy_bounds`` gives it.
    """
    # imported here, so that oracle does not load it
    from .inference import boundary_pass, bounds_from_draws, imbens_manski_ci, protocol_from_draws

    draws, plan = boundary_pass(data, cfg.boot, cfg.fit, cfg.covariates)
    protocol = protocol_from_draws(draws, cfg.boot.alpha)
    be = draws.point
    y_low, y_high = cfg.y_low, cfg.y_high
    fixed, random_ = bounds_from_draws(draws, cfg.assumption, y_low, y_high)

    block: dict = dict.fromkeys(field.name for field in BLOCK_FIELDS)
    block.update(
        order=cfg.fit.order,
        discontinuity_t=protocol.density.statistic,
        discontinuity_p=protocol.density.p_value,
        r=be.r,
        bandwidths=be.bandwidths,
        n_effective=be.n_effective,
        mu_plus=be.mu_plus,
        mu_minus=be.mu_minus,
        f_plus=be.f_plus,
        f_minus=be.f_minus,
        # the mean jump and its bootstrap SE, on the bounds' replicates
        point_estimate=be.mu_plus - be.mu_minus,
        point_se=fixed.point_se,
    )

    warnings = list(be.warnings)
    point = fixed.point
    set_lo, set_hi, clamped = clamp_interval(point.lower, point.upper, y_low, y_high)
    block["identified_set"] = [set_lo, set_hi]
    block["identified_set_status"] = point.status.value
    block["identified_set_clamped"] = clamped
    block["target"] = point.target
    if point.note:
        warnings.append(point.note)

    for label, bb in (("fixed_r", fixed), ("random_r", random_)):
        block[f"se_lower_{label}"] = bb.se_lower
        block[f"se_upper_{label}"] = bb.se_upper
        if np.isfinite([bb.se_lower, bb.se_upper]).all():
            ci = imbens_manski_ci(set_lo, set_hi, bb.se_lower, bb.se_upper, cfg.boot.alpha)
            block[f"ci_{label}"] = list(clamp_interval(ci.lo, ci.hi, y_low, y_high)[:2])
            block[f"c_bar_{label}"] = ci.c_bar
        elif "bootstrap_se_not_finite" not in warnings:
            warnings.append("bootstrap_se_not_finite")

    if cfg.sharp:
        sharp_res = sharp_type2_bounds(*sharp_window(plan, data.ys), be.mu_plus, be.mu_minus, be.r, y_low, y_high)
        block["sharp_set"] = list(clamp_interval(sharp_res.lower, sharp_res.upper, y_low, y_high)[:2])
        block["sharp_status"] = sharp_res.status.value

    if cfg.fuzzy:
        d_plus, d_minus = (min(max(d, 0.0), 1.0) for d in sample_means(plan, data.d))
        fz = fuzzy_bounds(be.mu_plus, be.mu_minus, be.r, d_plus, d_minus, y_low, y_high)
        if fz.status is not BoundsStatus.DEGENERATE:
            block["fuzzy_set"] = [fz.lower, fz.upper]
        block["fuzzy_status"] = fz.status.value

    _check_finite(block)
    _check_sets(block, cfg.assumption, y_low, y_high)
    # the distinct values counted on a sorted copy: np.unique would load numpy.ma
    xs = np.sort(data.xs)
    dup_fraction = 1.0 - (1 + np.count_nonzero(xs[1:] != xs[:-1])) / data.n
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "duplicate_x_fraction": dup_fraction,
        "config": {
            "cutoff": cfg.cutoff,
            "y_low": y_low,
            "y_high": y_high,
            "assumption": cfg.assumption.value,
            "order": cfg.fit.order,
            "kernel": cfg.fit.kernel.value,
            "alpha": cfg.boot.alpha,
            "bootstrap": cfg.boot.b,
            "seed": cfg.boot.seed,
        },
        "verdict": protocol.verdict.value,
        "protocol": {
            "density": asdict(protocol.density),
            "balance": None
            if protocol.balance is None
            else [{"covariate": name, **asdict(res)} for name, res in protocol.balance],
        },
        "n": data.n,
        "warnings": warnings,
        "blocks": [block],
    }


def _check_finite(block: dict) -> None:
    """Raise RuntimeError, an internal error, where a number or an interval
    end of ``block`` is nan, inf or null and ``BLOCK_FIELDS`` does not let
    that field be null."""
    for field in BLOCK_FIELDS:
        value = block[field.name]
        if field.kind in ("number", "interval") and not field.nullable:
            if not np.isfinite(np.asarray(value, dtype=float)).all():
                raise RuntimeError(f"{field.name} {value} is not finite")


def _check_sets(block: dict, assumption: TypeAssumption, y_low: float, y_high: float) -> None:
    """Raise RuntimeError, an internal error, where ``block`` breaks what its
    formulas guarantee: every interval field has its lower end at most its
    upper end, and each contains the field its ``contains`` names, the sharp
    set only under type 2 and the mixture. The slack is the one ``bounds``
    snaps crossed ends with; an interval or an end the report writes as
    null is not compared."""
    slack = snap_tolerance(y_low, y_high)
    for field in BLOCK_FIELDS:
        interval = block[field.name]
        if field.kind == "interval" and interval and interval[0] > interval[1] + slack:
            raise RuntimeError(f"{field.name} {interval} has its lower end above its upper end")
    for outer, inner in ((field.name, field.contains) for field in BLOCK_FIELDS if field.contains):
        if inner == "sharp_set" and assumption not in (TypeAssumption.TYPE2, TypeAssumption.MIXED):
            continue
        if block[outer] and block[inner]:
            ends = ((block[outer][0], block[inner][0]), (block[inner][1], block[outer][1]))
            if any(np.isfinite([a, b]).all() and a > b + slack for a, b in ends):
                raise RuntimeError(f"{outer} {block[outer]} does not contain {inner} {block[inner]}")
