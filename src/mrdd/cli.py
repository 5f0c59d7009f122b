"""Command-line interface: ingest, analyze, simulate, oracle, plotdata.

``analyze`` runs the sequential diagnostic protocol and emits a JSON report
whose blocks mirror the usual presentation (one block per polynomial
order): discontinuity test, density ratio, bandwidths, point estimate with
bootstrap SE, identified set, and fixed-r / random-r confidence intervals.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation. Identical invocations (flags, files, seed) produce
byte-identical outputs; bootstrap randomness is keyed per replicate so the
worker count does not change results.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import synth
from .boundary import Bandwidths, Dataset, FitConfig
from .bounds import (
    BoundsStatus,
    FuzzyInputs,
    TypeAssumption,
    clamp_interval,
    fuzzy_bounds,
    sharp_type2_bounds,
)
from .diagnostics import ProtocolConfig, run_sequential_protocol
from .errors import (
    ConfigError,
    DataError,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    MrddError,
    ParseError,
    UnknownDgp,
)
from .inference import (
    BootstrapConfig,
    RMode,
    bootstrap_boundary_replicates,
    bounds_from_draws,
    imbens_manski_ci,
)
from .localfit import (
    DENSITY_FLOOR,
    FitSpec,
    KernelKind,
    Side,
    boundary_density,
    local_poly_fit,
    local_weights,
    rot_bandwidth,
)

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunConfig:
    """Resolved analyze configuration (flags over config file over defaults)."""

    cutoff: float
    y_low: float | None = None
    y_high: float | None = None
    assumption: TypeAssumption = TypeAssumption.TYPE2
    order: int = 1
    kernel: KernelKind = KernelKind.TRIANGULAR
    alpha: float = 0.05
    b: int = 500
    seed: int = 0
    sharp: bool = False
    fuzzy: bool = False
    covariates: tuple[str, ...] = ()
    col_x: str = "x"
    col_y: str = "y"
    col_d: str | None = None
    bandwidths: Bandwidths = Bandwidths()
    workers: int = 1

    def __post_init__(self):
        if not np.isfinite(self.cutoff):
            raise InvalidConfig("cutoff must be finite")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidConfig(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.order not in (0, 1, 2):
            raise InvalidConfig(f"order must be 0, 1 or 2, got {self.order}")
        if self.workers < 1:
            raise InvalidConfig("workers must be at least 1")

    def fit_config(self) -> FitConfig:
        return FitConfig(
            mean_order=self.order,
            density_order=self.order,
            kernel=self.kernel,
            bandwidths=self.bandwidths,
        )


def ingest(
    path: str,
    cutoff: float,
    y_low: float | None = None,
    y_high: float | None = None,
    col_x: str = "x",
    col_y: str = "y",
    col_d: str | None = None,
    covariates: tuple[str, ...] = (),
) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    Rows whose values fail to parse or are not finite (nan, inf) raise
    ParseError with the 1-based line number. Requested optional columns
    must exist.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    xs: list[float] = []
    ys: list[float] = []
    ds: list[float] = []
    covs: dict[str, list[float]] = {name: [] for name in covariates}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        for col in (col_x, col_y, *( (col_d,) if col_d else () ), *covariates):
            if col not in header:
                raise MissingColumn(f"column {col!r} not found in {path} (header: {list(header)})")
        for lineno, record in enumerate(reader, start=2):
            try:
                xs.append(float(record[col_x]))
                ys.append(float(record[col_y]))
            except (TypeError, ValueError):
                raise ParseError(
                    f"non-numeric running variable or outcome at line {lineno}", line=lineno
                )
            if col_d:
                try:
                    ds.append(float(record[col_d]))
                except (TypeError, ValueError):
                    raise ParseError(f"non-numeric treatment at line {lineno}", line=lineno)
            for name in covariates:
                try:
                    covs[name].append(float(record[name]))
                except (TypeError, ValueError):
                    raise ParseError(
                        f"non-numeric covariate {name!r} at line {lineno}", line=lineno
                    )
    if not xs:
        raise EmptyInput(f"{path} contains no data rows")
    columns = {col_x: np.array(xs), col_y: np.array(ys)}
    if col_d:
        columns[col_d] = np.array(ds)
    columns.update((name, np.array(vals)) for name, vals in covs.items())
    for name, values in columns.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            line = int(bad[0]) + 2
            raise ParseError(
                f"non-finite value {values[bad[0]]} in column {name!r} at line {line}", line=line
            )
    return Dataset(
        xs=columns[col_x],
        ys=columns[col_y],
        cutoff=cutoff,
        y_low=y_low,
        y_high=y_high,
        d=columns[col_d] if col_d else None,
        covariates={name: columns[name] for name in covariates},
    )


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _test_dict(res) -> dict:
    return {
        "statistic": res.statistic,
        "p_value": res.p_value,
        "method": res.method,
        "replications": res.replications,
        "warnings": list(res.warnings),
    }


def build_report(cfg: RunConfig, data: Dataset) -> dict:
    """Run the full pipeline and assemble the JSON-ready report.

    Bandwidths are resolved once here and shared by every stage. Every
    reported interval is clipped to the logical range of an effect.
    """
    fit = cfg.fit_config().resolved(data.xs, data.cutoff)
    protocol = run_sequential_protocol(
        data,
        ProtocolConfig(
            alpha=cfg.alpha,
            b=cfg.b,
            seed=cfg.seed,
            fit=fit,
            covariates=cfg.covariates or None,
            workers=cfg.workers,
        ),
    )
    boot_cfg = BootstrapConfig(b=cfg.b, seed=cfg.seed, alpha=cfg.alpha, workers=cfg.workers)
    draws = bootstrap_boundary_replicates(data, boot_cfg, fit)
    be = draws.point

    block: dict = {
        "order": cfg.order,
        "discontinuity_t": protocol.density.statistic,
        "discontinuity_p": protocol.density.p_value,
        "r": be.r,
        "bandwidths": {
            "mean_left": be.bandwidths.mean_left,
            "mean_right": be.bandwidths.mean_right,
            "dens_left": be.bandwidths.dens_left,
            "dens_right": be.bandwidths.dens_right,
        },
        "n_effective": {
            "mean_left": be.n_effective.mean_left,
            "mean_right": be.n_effective.mean_right,
            "dens_left": be.n_effective.dens_left,
            "dens_right": be.n_effective.dens_right,
        },
        "mu_plus": be.mu_plus,
        "mu_minus": be.mu_minus,
        "f_plus": be.f_plus,
        "f_minus": be.f_minus,
    }

    # point estimate of the mean jump and its bootstrap SE
    jumps = draws.draws[:, 0] - draws.draws[:, 1]
    block["point_estimate"] = be.mu_plus - be.mu_minus
    block["point_se"] = float(np.std(jumps, ddof=1))

    warnings = list(be.warnings)
    if data.y_low is None or data.y_high is None:
        raise InvalidConfig("analyze needs --y-min and --y-max to compute bounds")
    y_low, y_high = data.y_low, data.y_high

    fixed = bounds_from_draws(draws, cfg.assumption, RMode.FIXED, y_low, y_high)
    random_ = bounds_from_draws(draws, cfg.assumption, RMode.RANDOM, y_low, y_high)
    point = fixed.point
    set_lo, set_hi, clamped = clamp_interval(point.lower, point.upper, y_low, y_high)
    block["identified_set"] = [set_lo, set_hi]
    block["identified_set_status"] = point.status.value
    block["identified_set_clamped"] = clamped
    block["target"] = point.target
    if point.note:
        warnings.append(point.note)

    for label, bb in (("fixed_r", fixed), ("random_r", random_)):
        ci = imbens_manski_ci(set_lo, set_hi, bb.se_lower, bb.se_upper, cfg.alpha)
        lo, hi, _ = clamp_interval(ci.lo, ci.hi, y_low, y_high)
        block[f"ci_{label}"] = [lo, hi]
        block[f"se_lower_{label}"] = bb.se_lower
        block[f"se_upper_{label}"] = bb.se_upper
        block[f"c_bar_{label}"] = ci.c_bar

    if cfg.sharp:
        # the right-side mean fit's window and kernel weights
        spec_r = FitSpec(cfg.order, be.bandwidths.mean_right, cfg.kernel, Side.RIGHT)
        _, w, keep = local_weights(data.xs, data.cutoff, spec_r)
        window = np.column_stack([w[keep], data.ys[keep]])
        sharp_res, _ = sharp_type2_bounds(window, be, y_low, y_high)
        sharp_lo, sharp_hi, _ = clamp_interval(sharp_res.lower, sharp_res.upper, y_low, y_high)
        block["sharp_set"] = [sharp_lo, sharp_hi]
        block["sharp_status"] = sharp_res.status.value
    else:
        block["sharp_set"] = None
        block["sharp_status"] = None

    if cfg.fuzzy:
        if data.d is None:
            raise MissingColumn("--fuzzy needs a treatment column (--col-d)")
        spec_l = FitSpec(cfg.order, be.bandwidths.mean_left, cfg.kernel, Side.LEFT)
        spec_r = FitSpec(cfg.order, be.bandwidths.mean_right, cfg.kernel, Side.RIGHT)
        d_minus = float(local_poly_fit(data.xs, data.d, data.cutoff, spec_l).coefficients[0])
        d_plus = float(local_poly_fit(data.xs, data.d, data.cutoff, spec_r).coefficients[0])
        fz = fuzzy_bounds(
            FuzzyInputs(be=be, d_plus=min(max(d_plus, 0.0), 1.0), d_minus=min(max(d_minus, 0.0), 1.0)),
            y_low,
            y_high,
        )
        block["fuzzy_set"] = None if fz.status is BoundsStatus.DEGENERATE else [fz.lower, fz.upper]
        block["fuzzy_status"] = fz.status.value
    else:
        block["fuzzy_set"] = None
        block["fuzzy_status"] = None

    dup_fraction = 1.0 - np.unique(data.xs).size / data.n
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "duplicate_x_fraction": dup_fraction,
        "config": {
            "cutoff": cfg.cutoff,
            "y_low": y_low,
            "y_high": y_high,
            "assumption": cfg.assumption.value,
            "order": cfg.order,
            "kernel": cfg.kernel.value,
            "alpha": cfg.alpha,
            "bootstrap": cfg.b,
            "seed": cfg.seed,
        },
        "verdict": protocol.verdict.value,
        "protocol": {
            "density": _test_dict(protocol.density),
            "balance": None
            if protocol.balance is None
            else [{"covariate": name, **_test_dict(res)} for name, res in protocol.balance],
        },
        "n": data.n,
        "warnings": warnings,
        "blocks": [block],
    }
    return report


# ---------------------------------------------------------------- commands


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise InvalidConfig(f"config file {path} not found")
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as err:
            raise InvalidConfig(f"bad JSON config: {err}")
        if not isinstance(loaded, dict):
            raise InvalidConfig("JSON config must be an object")
        return loaded
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {lineno} is not key = value: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_CONFIG_KEYS = {
    "cutoff": float,
    "y_min": float,
    "y_max": float,
    "type": str,
    "order": int,
    "kernel": str,
    "alpha": float,
    "boot": int,
    "seed": int,
    "sharp": bool,
    "fuzzy": bool,
    "col_x": str,
    "col_y": str,
    "col_d": str,
    "workers": int,
    "bw_mean_left": float,
    "bw_mean_right": float,
    "bw_dens_left": float,
    "bw_dens_right": float,
}


def _coerce(key: str, value, kind):
    if isinstance(value, str) and kind is bool:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise InvalidConfig(f"config key {key!r}: cannot parse boolean from {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    file_values: dict = {}
    if args.config:
        raw = _read_config_file(args.config)
        for key, value in raw.items():
            if key == "covariates":
                names = value if isinstance(value, list) else [s for s in str(value).split(",") if s]
                file_values["covariates"] = tuple(names)
                continue
            if key not in _CONFIG_KEYS:
                raise InvalidConfig(f"unknown config key {key!r}")
            file_values[key] = _coerce(key, value, _CONFIG_KEYS[key])

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    cutoff = pick(args.cutoff, "cutoff", None)
    if cutoff is None:
        raise InvalidConfig("--cutoff is required (no inference from data)")
    try:
        assumption = TypeAssumption(pick(args.type, "type", "type2"))
    except ValueError:
        raise InvalidConfig(f"unknown assumption type {args.type!r}")
    try:
        kernel = KernelKind(pick(args.kernel, "kernel", "triangular"))
    except ValueError:
        raise InvalidConfig(f"unknown kernel {args.kernel!r}")
    covariates = tuple(args.covariate) if args.covariate else file_values.get("covariates", ())
    bandwidths = Bandwidths(
        mean_left=pick(args.bw_mean_left, "bw_mean_left", None),
        mean_right=pick(args.bw_mean_right, "bw_mean_right", None),
        dens_left=pick(args.bw_dens_left, "bw_dens_left", None),
        dens_right=pick(args.bw_dens_right, "bw_dens_right", None),
    )
    sharp = args.sharp or file_values.get("sharp", False)
    fuzzy = args.fuzzy or file_values.get("fuzzy", False)
    return RunConfig(
        cutoff=float(cutoff),
        y_low=pick(args.y_min, "y_min", None),
        y_high=pick(args.y_max, "y_max", None),
        assumption=assumption,
        order=int(pick(args.order, "order", 1)),
        kernel=kernel,
        alpha=float(pick(args.alpha, "alpha", 0.05)),
        b=int(pick(args.boot, "boot", 500)),
        seed=int(pick(args.seed, "seed", 0)),
        sharp=bool(sharp),
        fuzzy=bool(fuzzy),
        covariates=covariates,
        col_x=pick(args.col_x, "col_x", "x"),
        col_y=pick(args.col_y, "col_y", "y"),
        col_d=pick(args.col_d, "col_d", None),
        bandwidths=bandwidths,
        workers=int(pick(args.workers, "workers", 1)),
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    data = ingest(
        args.input,
        cutoff=cfg.cutoff,
        y_low=cfg.y_low,
        y_high=cfg.y_high,
        col_x=cfg.col_x,
        col_y=cfg.col_y,
        col_d=cfg.col_d,
        covariates=cfg.covariates,
    )
    report = build_report(cfg, data)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    name = args.dgp
    if name == "appendix-d":
        spec = synth.AppendixDSpec(p=args.p, lam=args.lam, n=args.n, seed=args.seed)
        ts = synth.gen_appendix_d(spec)
    elif name == "counterexample-e":
        ts = synth.gen_counterexample_e(n=args.n, seed=args.seed, noise_sd=args.noise_sd)
    elif name == "typed":
        if not args.share:
            raise InvalidConfig("typed DGP needs at least one --share T=WEIGHT")
        shares: dict[int, float] = {}
        for chunk in args.share:
            try:
                label, _, weight = chunk.partition("=")
                shares[int(label)] = float(weight)
            except ValueError:
                raise InvalidConfig(f"cannot parse --share {chunk!r}; expected T=WEIGHT")
        params = synth.TypedParams(attempt_prob=args.attempt_prob)
        ts = synth.gen_typed(shares, params, n=args.n, seed=args.seed)
    else:
        raise UnknownDgp(f"unknown DGP {name!r}; choose appendix-d, counterexample-e or typed")
    synth.write_typed_csv(ts, args.out)
    shares_txt = ", ".join(f"type {t}: {s:.4f}" for t, s in sorted(ts.type_shares().items()))
    sys.stdout.write(
        f"wrote {ts.data.n} rows to {args.out}\n"
        f"type shares: {shares_txt}\n"
        f"manipulation fraction: {ts.manipulation_fraction():.4f}\n"
    )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    row = synth.oracle_appendix_d(args.p, args.lam)
    payload = {
        "p": row.p,
        "lambda": row.lam,
        "mu_plus": row.mu_plus,
        "mu_minus": row.mu_minus,
        "r": row.r,
        "theta_true": row.theta_true,
        "crude": [row.crude_lower, row.crude_upper],
        "sharp": [row.sharp_lower, row.sharp_upper],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_plotdata(args: argparse.Namespace) -> int:
    data = ingest(args.input, cutoff=args.cutoff, col_x=args.col_x, col_y=args.col_y)
    xs = data.xs
    c, w = args.cutoff, args.bin_width
    k_lo = int(np.floor((xs.min() - c) / w))
    k_hi = int(np.ceil((xs.max() - c) / w))
    if k_hi == k_lo:
        k_hi += 1
    edges = c + w * np.arange(k_lo, k_hi + 1)
    counts, _ = np.histogram(xs, bins=edges)
    h_left = rot_bandwidth(xs, Side.LEFT, c)
    h_right = rot_bandwidth(xs, Side.RIGHT, c)
    rows = []
    n_clipped = 0
    for i, count in enumerate(counts):
        left_edge, right_edge = edges[i], edges[i + 1]
        center = 0.5 * (left_edge + right_edge)
        side = "left" if right_edge <= c else "right"
        h = h_left if side == "left" else h_right
        if side == "left":
            fit_side = Side.INTERIOR if center + h <= c else Side.LEFT
        else:
            fit_side = Side.INTERIOR if center - h >= c else Side.RIGHT
        try:
            dens, clipped = boundary_density(xs, center, FitSpec(1, h, KernelKind.TRIANGULAR, fit_side))
        except DataError:
            dens, clipped = float("nan"), False
        n_clipped += clipped
        rows.append((float(left_edge), float(right_edge), int(count), side, float(dens)))
    lines = ["bin_left,bin_right,count,side,fitted_density"]
    for left_edge, right_edge, count, side, dens in rows:
        lines.append(f"{left_edge!r},{right_edge!r},{count},{side},{dens!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    if n_clipped:
        print(
            f"warning: {n_clipped} of {len(rows)} bins clipped to {DENSITY_FLOOR}: "
            "their fitted density was not positive",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrdd",
        description="Manipulation-robust regression discontinuity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the diagnostic protocol and bounds on a CSV file")
    pa.add_argument("input")
    pa.add_argument("--cutoff", type=float, default=None)
    pa.add_argument("--y-min", dest="y_min", type=float, default=None)
    pa.add_argument("--y-max", dest="y_max", type=float, default=None)
    pa.add_argument("--type", choices=[t.value for t in TypeAssumption], default=None)
    pa.add_argument("--order", type=int, choices=[0, 1, 2], default=None)
    pa.add_argument("--kernel", choices=[k.value for k in KernelKind], default=None)
    pa.add_argument("--alpha", type=float, default=None)
    pa.add_argument("--boot", type=int, default=None)
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--sharp", action="store_true", default=False)
    pa.add_argument("--fuzzy", action="store_true", default=False)
    pa.add_argument("--covariate", action="append", default=None, metavar="NAME")
    pa.add_argument("--col-x", dest="col_x", default=None)
    pa.add_argument("--col-y", dest="col_y", default=None)
    pa.add_argument("--col-d", dest="col_d", default=None)
    pa.add_argument("--bw-mean-left", dest="bw_mean_left", type=float, default=None)
    pa.add_argument("--bw-mean-right", dest="bw_mean_right", type=float, default=None)
    pa.add_argument("--bw-dens-left", dest="bw_dens_left", type=float, default=None)
    pa.add_argument("--bw-dens-right", dest="bw_dens_right", type=float, default=None)
    pa.add_argument("--workers", type=int, default=None)
    pa.add_argument("--config", default=None, help="key = value file or JSON")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="write a synthetic sample with latent columns")
    ps.add_argument("dgp", help="appendix-d, counterexample-e, or typed")
    ps.add_argument("--p", type=float, default=0.1)
    ps.add_argument("--lambda", dest="lam", type=float, default=0.05)
    ps.add_argument("--n", type=int, default=10_000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.0)
    ps.add_argument("--share", action="append", default=None, metavar="T=WEIGHT")
    ps.add_argument("--attempt-prob", dest="attempt_prob", type=float, default=0.5)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    po = sub.add_parser("oracle", help="population bounds for the mixture DGP")
    po.add_argument("--p", type=float, required=True)
    po.add_argument("--lambda", dest="lam", type=float, required=True)
    po.add_argument("--out", default=None)
    po.set_defaults(func=cmd_oracle)

    pp = sub.add_parser("plotdata", help="histogram bins plus fitted one-sided densities")
    pp.add_argument("input")
    pp.add_argument("--cutoff", type=float, required=True)
    pp.add_argument("--bin-width", dest="bin_width", type=float, default=0.005)
    pp.add_argument("--col-x", dest="col_x", default="x")
    pp.add_argument("--col-y", dest="col_y", default="y")
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"data error: file not found: {err}", file=sys.stderr)
        return EXIT_DATA
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MrddError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
