"""Command-line interface: ingest, analyze, simulate, oracle, plotdata.

``analyze`` runs the sequential diagnostic protocol and emits a JSON report
whose one block, at the requested polynomial order, mirrors the usual
presentation: discontinuity test, density ratio, bandwidths, point estimate
with bootstrap SE, identified set, and fixed-r / random-r confidence
intervals.

Exit codes: 0 success, 2 configuration error (an unopenable ``--config``
included), 3 data error (an unopenable input included), 4 internal error:
any other exception, printed with its traceback. Identical invocations
(flags, files, seed) produce byte-identical outputs; bootstrap randomness
is keyed per replicate so the worker count does not change results, and
the long sums (the bootstrap's moment sums, the sharp bound's weighted
mean, the density curve's block sums) run in numpy's own loops rather than
BLAS, so neither does the BLAS thread count (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import synth
from ._bootstrap import BootstrapConfig, sample_means, sharp_window
from .boundary import Bandwidths, Dataset, FitConfig
from .bounds import (
    BoundsStatus,
    TypeAssumption,
    clamp_interval,
    fuzzy_bounds,
    sharp_type2_bounds,
    snap_tolerance,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)
from .localfit import (
    DENSITY_FLOOR,
    MAX_ORDER,
    FitSpec,
    KernelKind,
    Side,
    density_curve,
)

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

#: Most histogram bins ``plotdata`` will lay over the x range.
MAX_PLOT_BINS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Resolved analyze configuration (flags over config file over defaults).

    Building it, with its fit and bootstrap configs, checks every flag and
    flag combination, so a bad one exits 2 before the input is read.
    """

    cutoff: float
    y_low: float | None = None
    y_high: float | None = None
    assumption: TypeAssumption = TypeAssumption.TYPE2
    fit: FitConfig = FitConfig()
    boot: BootstrapConfig = BootstrapConfig()
    sharp: bool = False
    fuzzy: bool = False
    covariates: tuple[str, ...] = ()
    col_x: str = "x"
    col_y: str = "y"
    col_d: str | None = None

    def __post_init__(self):
        if not np.isfinite(self.cutoff):
            raise InvalidConfig("cutoff must be finite")
        if self.y_low is None or self.y_high is None:
            raise InvalidConfig("analyze needs --y-min and --y-max to compute bounds")
        if not (np.isfinite(self.y_low) and np.isfinite(self.y_high)):
            raise InvalidConfig("--y-min and --y-max must be finite")
        if self.y_low > self.y_high:
            raise InvalidConfig(f"--y-min {self.y_low} is above --y-max {self.y_high}")
        if not np.isfinite(self.y_high - self.y_low):
            raise InvalidConfig(
                f"the outcome range [{self.y_low}, {self.y_high}] is wider than the largest float"
            )
        if self.fuzzy and self.col_d is None:
            raise InvalidConfig("--fuzzy needs a treatment column (--col-d)")


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
    """Read a comma-separated file with a header row into a Dataset.

    The requested columns are parsed in one ``np.loadtxt`` call. It is given
    the file's path, which numpy reads in chunks, not the open file, which
    it would read one line at a time in Python; it skips the physical lines
    the header took. If that call fails or gives a value that is not
    finite, the file is read again one record at a time, which either
    returns the same columns or raises ParseError with the 1-based line
    number of the bad row. Requested columns must exist in the header. A
    file that cannot be opened, or a byte its encoding cannot decode,
    raises DataError naming the file.
    """
    # each requested column once, with the words its ParseError uses
    wanted: dict[str, str] = {}
    for name in (col_x, col_y):
        wanted.setdefault(name, "running variable or outcome")
    if col_d:
        wanted.setdefault(col_d, "treatment")
    for name in covariates:
        wanted.setdefault(name, f"covariate {name!r}")
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot open {path}: {err.strerror}") from None
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, [])
            for col in wanted:
                if col not in header:
                    raise MissingColumn(f"column {col!r} not found in {path} (header: {header})")
            columns = _parse_columns(path, fh.encoding, reader.line_num, header, list(wanted))
            if columns is None:
                fh.seek(0)
                columns = _read_rows(fh, wanted)
        except UnicodeDecodeError as err:
            bad = err.object[err.start : err.end]
            raise DataError(f"{path} is not {fh.encoding} text: cannot decode byte {bad!r}") from None
    if not columns[col_x].size:
        raise EmptyInput(f"{path} contains no data rows")
    return Dataset(
        xs=columns[col_x],
        ys=columns[col_y],
        cutoff=cutoff,
        y_low=y_low,
        y_high=y_high,
        d=columns[col_d] if col_d else None,
        covariates={name: columns[name] for name in covariates},
    )


def _parse_columns(
    path: str, encoding: str, skip: int, header: list[str], names: list[str]
) -> dict[str, np.ndarray] | None:
    """``names`` parsed from the rows of ``path`` after its first ``skip``
    lines, or None if ``np.loadtxt`` fails on them or a value is not finite."""
    # csv.DictReader maps a repeated header name to its last column
    usecols = [len(header) - 1 - header[::-1].index(name) for name in names]
    try:
        with warnings.catch_warnings():
            # a header-only file is reported as EmptyInput instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=2,
                skiprows=skip, encoding=encoding,
            )
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    return dict(zip(names, np.ascontiguousarray(table.T)))


def _read_rows(fh, wanted: dict[str, str]) -> dict[str, np.ndarray]:
    """The ``wanted`` columns of the csv text ``fh``, parsed one record at a time.

    ``wanted`` maps each column to the words its error message uses. A value
    ``float`` rejects raises ParseError at once; a value that is not finite
    raises it after every row has parsed. Either names the physical line
    where the bad record ends, counting blank lines and quoted line breaks.
    """
    values: dict[str, list[float]] = {name: [] for name in wanted}
    lines: list[int] = []
    records = csv.DictReader(fh)
    for record in records:
        line = records.line_num
        for name, what in wanted.items():
            try:
                values[name].append(float(record[name]))
            except (TypeError, ValueError):
                raise ParseError(f"non-numeric {what} at line {line}", line=line)
        lines.append(line)
    columns = {name: np.array(vals) for name, vals in values.items()}
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            line = lines[bad[0]]
            raise ParseError(
                f"non-finite value {column[bad[0]]} in column {name!r} at line {line}", line=line
            )
    return columns


def _nulls_for_non_finite(value):
    """``value`` with every nan or inf float, however nested, replaced by None."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _nulls_for_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulls_for_non_finite(item) for item in value]
    return value


def _output(out: str | None):
    """``out`` opened through ``synth.atomic_open``, or stdout when it is not given."""
    return synth.atomic_open(out) if out else contextlib.nullcontext(sys.stdout)


def _json_text(payload: dict) -> str:
    """Strict JSON: a non-finite number becomes null."""
    import json

    return json.dumps(_nulls_for_non_finite(payload), indent=2, allow_nan=False) + "\n"


def build_report(cfg: RunConfig, data: Dataset) -> dict:
    """Run the full pipeline and assemble the JSON-ready report.

    Bandwidths are resolved once here, and one bootstrap pass serves the
    density test, the balance tests and both r modes. Every fit comes from
    that pass's plan: the point estimates are its all-ones replicate, the
    sharp bound trims its right mean window, and the fuzzy bound's d+ and
    d- solve its mean-fit moment equations on the sample. The identified
    and sharp sets and both confidence intervals are clipped to the logical
    range of an effect; the fuzzy set bounds a ratio, which that range does
    not cap, and is reported as ``fuzzy_bounds`` gives it.
    """
    # imported here, so that plotdata, simulate and oracle do not load it
    from .inference import RMode, boundary_pass, bounds_from_draws, imbens_manski_ci, protocol_from_draws

    fit = cfg.fit.resolved(data.xs, data.cutoff)
    draws, plan = boundary_pass(data, cfg.boot, fit, cfg.covariates)
    protocol = protocol_from_draws(draws, cfg.boot.alpha)
    be = draws.point
    y_low, y_high = cfg.y_low, cfg.y_high
    fixed = bounds_from_draws(draws, cfg.assumption, RMode.FIXED, y_low, y_high)
    random_ = bounds_from_draws(draws, cfg.assumption, RMode.RANDOM, y_low, y_high)

    block: dict = {
        "order": fit.order,
        "discontinuity_t": protocol.density.statistic,
        "discontinuity_p": protocol.density.p_value,
        "r": be.r,
        "bandwidths": asdict(be.bandwidths),
        "n_effective": asdict(be.n_effective),
        "mu_plus": be.mu_plus,
        "mu_minus": be.mu_minus,
        "f_plus": be.f_plus,
        "f_minus": be.f_minus,
        # the mean jump and its bootstrap SE, on the bounds' replicates
        "point_estimate": be.mu_plus - be.mu_minus,
        "point_se": fixed.point_se,
    }

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
        # replicate ends past the float range, near a huge outcome range, give
        # a non-finite SE; the SE, the interval and c_bar are written as null
        ci = None
        if np.isfinite([bb.se_lower, bb.se_upper]).all():
            ci = imbens_manski_ci(set_lo, set_hi, bb.se_lower, bb.se_upper, cfg.boot.alpha)
        elif "bootstrap_se_not_finite" not in warnings:
            warnings.append("bootstrap_se_not_finite")
        block[f"ci_{label}"] = None if ci is None else list(clamp_interval(ci.lo, ci.hi, y_low, y_high)[:2])
        block[f"se_lower_{label}"] = bb.se_lower
        block[f"se_upper_{label}"] = bb.se_upper
        block[f"c_bar_{label}"] = None if ci is None else ci.c_bar

    if cfg.sharp:
        sharp_res = sharp_type2_bounds(*sharp_window(plan, data.ys), be.mu_plus, be.mu_minus, be.r, y_low, y_high)
        sharp_lo, sharp_hi, _ = clamp_interval(sharp_res.lower, sharp_res.upper, y_low, y_high)
        block["sharp_set"] = [sharp_lo, sharp_hi]
        block["sharp_status"] = sharp_res.status.value
    else:
        block["sharp_set"] = None
        block["sharp_status"] = None

    if cfg.fuzzy:
        d_plus, d_minus = (min(max(d, 0.0), 1.0) for d in sample_means(plan, data.d))
        fz = fuzzy_bounds(be.mu_plus, be.mu_minus, be.r, d_plus, d_minus, y_low, y_high)
        block["fuzzy_set"] = None if fz.status is BoundsStatus.DEGENERATE else [fz.lower, fz.upper]
        block["fuzzy_status"] = fz.status.value
    else:
        block["fuzzy_set"] = None
        block["fuzzy_status"] = None

    _check_sets(block, cfg.assumption, y_low, y_high)
    dup_fraction = 1.0 - np.unique(data.xs).size / data.n
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "duplicate_x_fraction": dup_fraction,
        "config": {
            "cutoff": cfg.cutoff,
            "y_low": y_low,
            "y_high": y_high,
            "assumption": cfg.assumption.value,
            "order": fit.order,
            "kernel": fit.kernel.value,
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
    return report


def _check_sets(block: dict, assumption: TypeAssumption, y_low: float, y_high: float) -> None:
    """Raise RuntimeError, an internal error, where ``block`` breaks what its
    formulas guarantee: every interval has its lower end at most its upper
    end, each confidence interval contains the identified set, and under
    type 2 and the mixture the sharp set lies inside it. The slack is the
    one ``bounds`` snaps crossed ends with; an interval or an end the report
    writes as null is not compared."""
    slack = snap_tolerance(y_low, y_high)
    for name in ("identified_set", "sharp_set", "fuzzy_set", "ci_fixed_r", "ci_random_r"):
        if block[name] and block[name][0] > block[name][1] + slack:
            raise RuntimeError(f"{name} {block[name]} has its lower end above its upper end")
    pairs = [("ci_fixed_r", "identified_set"), ("ci_random_r", "identified_set")]
    if assumption in (TypeAssumption.TYPE2, TypeAssumption.MIXED):
        pairs.append(("identified_set", "sharp_set"))
    for outer, inner in pairs:
        if block[outer] and block[inner]:
            ends = ((block[outer][0], block[inner][0]), (block[inner][1], block[outer][1]))
            if any(np.isfinite([a, b]).all() and a > b + slack for a, b in ends):
                raise RuntimeError(f"{outer} {block[outer]} does not contain {inner} {block[inner]}")


# ---------------------------------------------------------------- commands


def _read_config_file(path: str) -> dict:
    try:
        fh = open(path)
    except OSError as err:
        raise InvalidConfig(f"cannot open config file {path}: {err.strerror}") from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InvalidConfig(f"config file {path} is not {fh.encoding} text") from None
    if path.endswith(".json"):
        import json

        try:
            loaded = json.loads(text)
        except ValueError as err:  # JSONDecodeError, or an integer with too many digits
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


#: analyze's options in --help order: each config key, whose flag is the key
#: with - for _, and the type of its value or the values it takes (an Enum's,
#: or a range's). Column names come one per repeated --covariate flag, and
#: comma-separated or as a JSON list in the config file.
_OPTIONS = {
    "cutoff": float,
    "y_min": float,
    "y_max": float,
    "type": TypeAssumption,
    "order": range(MAX_ORDER + 1),
    "kernel": KernelKind,
    "alpha": float,
    "boot": int,
    "seed": int,
    "sharp": bool,
    "fuzzy": bool,
    "covariates": tuple,
    "col_x": str,
    "col_y": str,
    "col_d": str,
    "bw_mean_left": float,
    "bw_mean_right": float,
    "bw_dens_left": float,
    "bw_dens_right": float,
    "workers": int,
}


def _choices(kind) -> tuple[type, list | None]:
    """The type of an option's flag value and the values the flag takes, None for any."""
    if isinstance(kind, range):
        return int, list(kind)
    if isinstance(kind, enum.EnumMeta):
        return str, [member.value for member in kind]
    return kind, None


def _coerce(key: str, value, kind):
    """A flag or config value as an option of ``kind``: a string that parses as
    one, or a JSON value of its type. An integer also serves as a float; a
    bool serves only as a bool. An Enum option gives its member; a range
    option any int, which its config class checks."""
    base, choices = _choices(kind)
    if kind is tuple:
        if isinstance(value, str):
            value = [s for s in value.split(",") if s]
        if isinstance(value, list) and all(isinstance(s, str) for s in value):
            return tuple(value)
    elif isinstance(value, str) and kind is bool:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
    elif isinstance(value, str) or type(value) is base or (base is float and type(value) is int):
        try:
            return kind(base(value)) if isinstance(kind, enum.EnumMeta) else base(value)
        except (ValueError, OverflowError):
            pass
    what = "column names" if kind is tuple else base.__name__
    if isinstance(kind, enum.EnumMeta):
        what = "one of " + ", ".join(choices)
    raise InvalidConfig(f"config key {key!r}: cannot parse {value!r} as {what}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over the config classes' defaults."""
    values: dict = {}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in _OPTIONS:
                raise InvalidConfig(f"unknown config key {key!r}")
            values[key] = _coerce(key, value, _OPTIONS[key])
    for key, kind in _OPTIONS.items():
        if getattr(args, key) is not None:
            values[key] = _coerce(key, getattr(args, key), kind)
    if "cutoff" not in values:
        raise InvalidConfig("--cutoff is required (no inference from data)")

    def given(**fields: str) -> dict:
        """Field name -> value for each key a flag or the config file sets."""
        return {name: values[key] for name, key in fields.items() if key in values}

    # the bw_* keys name Bandwidths' fields
    bandwidths = Bandwidths(**{key[3:]: value for key, value in values.items() if key.startswith("bw_")})
    return RunConfig(
        fit=FitConfig(bandwidths=bandwidths, **given(order="order", kernel="kernel")),
        boot=BootstrapConfig(**given(b="boot", seed="seed", alpha="alpha", workers="workers")),
        **given(
            cutoff="cutoff", y_low="y_min", y_high="y_max", assumption="type", sharp="sharp", fuzzy="fuzzy",
            covariates="covariates", col_x="col_x", col_y="col_y", col_d="col_d",
        ),
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
    # opened first, so an unwritable --out fails before the pipeline runs
    with _output(args.out) as fh:
        fh.write(_json_text(build_report(cfg, data)))
    return EXIT_OK


def _typed_sample(args: argparse.Namespace) -> synth.TypedSample:
    """The typed DGP's sample, with the type shares of the repeated ``--share T=WEIGHT``."""
    shares: dict[int, float] = {}
    for chunk in args.share:
        try:
            label, _, weight = chunk.partition("=")
            shares[int(label)] = float(weight)
        except ValueError:
            raise InvalidConfig(f"cannot parse --share {chunk!r}; expected T=WEIGHT")
    return synth.gen_typed(shares, args.n, args.seed, args.attempt_prob)


def cmd_simulate(args: argparse.Namespace) -> int:
    ts = args.generate(args)
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
    with _output(args.out) as fh:
        fh.write(_json_text(payload))
    return EXIT_OK


def cmd_plotdata(args: argparse.Namespace) -> int:
    c, w = args.cutoff, args.bin_width
    if not (np.isfinite(w) and w > 0):
        raise InvalidConfig(f"--bin-width must be positive and finite, got {w}")
    # the x column alone: plotdata reads no outcome
    xs = ingest(args.input, cutoff=c, col_x=args.col_x, col_y=args.col_x).xs
    with np.errstate(over="ignore", invalid="ignore"):
        k_lo = np.floor((xs.min() - c) / w)
        k_hi = np.ceil((xs.max() - c) / w)
        n_bins = k_hi - k_lo
    # also false when the bin count overflows to inf or to inf - inf = nan
    if not n_bins <= MAX_PLOT_BINS:
        raise InvalidConfig(
            f"--bin-width {w} gives more than {MAX_PLOT_BINS} bins over the x range"
        )
    k_lo, k_hi = int(k_lo), int(k_hi)
    if k_hi == k_lo:
        k_hi += 1
    edges = c + w * np.arange(k_lo, k_hi + 1)
    counts, _ = np.histogram(xs, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    is_left = edges[1:] <= c
    fit = FitConfig().resolved(xs, c)
    h_left, h_right = fit.bandwidths.dens_left, fit.bandwidths.dens_right
    # a bin's fit is one-sided where its window crosses the cutoff, so the
    # bins share at most four specs: (side of the cutoff, interior or not)
    interior = np.where(is_left, centers + h_left <= c, centers - h_right >= c)
    keys = list(zip(is_left.tolist(), interior.tolist()))
    specs = {
        (left, inner): FitSpec(
            fit.order, h_left if left else h_right, fit.kernel,
            Side.INTERIOR if inner else Side.LEFT if left else Side.RIGHT,
        )
        for left, inner in set(keys)
    }
    densities, clipped = density_curve(xs, centers, [specs[key] for key in keys])
    # row i's right edge is row i + 1's left edge: each edge is formatted once
    edge_text = list(map(repr, edges.tolist()))
    sides = ["left" if left else "right" for left in is_left.tolist()]
    rows = zip(edge_text, edge_text[1:], counts.tolist(), sides, densities.tolist())
    with synth.atomic_open(args.out) as fh:
        fh.write("bin_left,bin_right,count,side,fitted_density\n")
        fh.writelines(f"{left},{right},{count},{side},{dens!r}\n" for left, right, count, side, dens in rows)
    n_clipped, n_unfit = int(np.count_nonzero(clipped)), int(np.count_nonzero(np.isnan(densities)))
    if n_clipped or n_unfit:
        print(
            f"warning: {n_clipped} of {counts.size} bins clipped to {DENSITY_FLOOR} (their fitted density "
            f"was not positive); {n_unfit} have no fitted density (nan: their window is too poor for the fit)",
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
    for key, kind in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            pa.add_argument(flag, dest=key, action="store_true", default=None)
        elif kind is tuple:
            pa.add_argument("--covariate", dest=key, action="append", metavar="NAME")
        else:
            base, choices = _choices(kind)
            pa.add_argument(flag, dest=key, type=base, choices=choices)
    pa.add_argument("--config", default=None, help="key = value file or JSON")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    # --n, --seed and --out follow the DGP name; each DGP takes only its own flags
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--n", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True)
    ps = sub.add_parser("simulate", help="write a synthetic sample with latent columns")
    ps.set_defaults(func=cmd_simulate)
    dgps = ps.add_subparsers(dest="dgp", required=True, metavar="DGP")
    pd = dgps.add_parser("appendix-d", parents=[sample], help="the normal mixture with exponential landings")
    pd.add_argument("--p", type=float, default=0.1)
    pd.add_argument("--lambda", dest="lam", type=float, default=0.05)
    pd.set_defaults(generate=lambda a: synth.gen_appendix_d(a.p, a.lam, a.n, a.seed))
    pe = dgps.add_parser("counterexample-e", parents=[sample], help="smooth density, jumping mean")
    pe.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.0)
    pe.set_defaults(generate=lambda a: synth.gen_counterexample_e(a.n, a.seed, a.noise_sd))
    pt = dgps.add_parser("typed", parents=[sample], help="a mix of the five manipulation types")
    pt.add_argument("--share", action="append", required=True, metavar="T=WEIGHT")
    pt.add_argument("--attempt-prob", dest="attempt_prob", type=float, default=0.5)
    pt.set_defaults(generate=_typed_sample)

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
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception as err:
        import traceback

        traceback.print_exc()
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
