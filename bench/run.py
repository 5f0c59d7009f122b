"""Benchmark of the ``mrdd`` command line, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0 --smoke
    python3 bench/run.py --write-benchmark-json

The benchmark uses only the standard library and numpy. For one workload it
generates the input CSV from ``--seed`` with its own numpy code (never with
``mrdd.synth``, so a change there cannot change what the rest of the code
reads), then runs the CLI as fresh ``python3`` processes with ``src`` on
``PYTHONPATH`` and checks every output.

``--trace 0`` measures the end-to-end metrics. It times ``import mrdd.cli``
plus ``ingest`` of the input in fresh interpreters (``setup_s``), then runs
the CLI again and again until ``--seconds`` would be exceeded, at least once.
Wall time, CPU time and peak RSS of each run come from ``os.wait4`` on that
child alone; each metric is the median over the runs.

``--trace 1`` runs the CLI once untraced and once under ``bench/traced.py``,
which records spans around the package's public names, and reports the
per-layer metrics. The traced output must equal the untraced one byte for
byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A longer record
(environment, input hashes, every run, the spans) goes to
``.bench_out/result-<workload>-<seed>-trace<t>.json``.

Every CLI run passes a correctness gate or counts as failed: exit code 0,
an output file, strict JSON, the expected verdict, the identified set near
the population values, sharp set inside the crude set, fuzzy set equal to
the type-2 set on this sharp design, each confidence set containing its
set, histogram counts summing to n, and byte-identical outputs across runs
of one workload, seed and source tree.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

RUN_SECONDS = 25
SETUP_REPEATS = 3
SMOKE_BOOT = 50
# Every child of one benchmark run is killed once this much time has passed
# since the run started, so that the run ends within its time limit.
RUN_DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CLI_SNIPPET = "import sys; from mrdd.cli import main; sys.exit(main(sys.argv[1:]))"

# Population values of the Appendix D design, from the package's quadrature
# oracle (``oracle_appendix_d``) at the time this benchmark was written. They
# are constants so that a change to the oracle cannot move the gate.
POP_CRUDE_P01_L005 = (0.059926, 0.185076)  # crude type-2 set at p=0.1, lambda=0.05
POP_THETA_P0 = 0.149882  # point-identified jump at p=0

# Acceptance criterion 03 checks the identified set to +-0.03 on one n=200k
# sample. Across 40 samples of the manipulated design at n=200k the lower
# endpoint's error has mean -0.036 (rule-of-thumb bandwidth bias) and
# standard deviation 0.025, and the balanced design's error at n=50k has
# standard deviation 0.029, so a fixed +-0.03 would fail on ordinary seeds.
# The gate uses five times criterion 03's tolerance at each workload's full
# size and widens it as 1/sqrt(n) for smoke runs. It catches a wrong formula
# or swapped endpoint, not a small bias; the test suite covers those.
SET_TOLERANCE = 5 * 0.03
ALPHA = 0.05
MIN_REPLICATION_SHARE = 0.9
FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: str  # "manipulated" (p=0.1, lambda=0.05) or "balanced" (p=0, covariates)
    n: int
    smoke_n: int
    command: str
    flags: tuple[str, ...]
    boot: int | None = None
    # plotdata only: the number of histogram bins, each one boundary_density
    # call. The bin width is the sample's x range over this count, so every
    # seed does the same work; a fixed width would not, because the range
    # follows the maximum of ~10k exponential landings (sd about 25, or 14%).
    plot_bins: int | None = None
    # Per-layer metrics whose sum should be most of the traced run.
    dominant: tuple[str, ...] = ()


COMMON_ANALYZE = ("--cutoff", "0", "--y-min", "0", "--y-max", "1", "--seed", "0")

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="analyze-manipulated",
            why="Appendix D n=200k B=500 on one worker, the headline; density test "
            "rejects, so bootstrap and density test do almost all the work",
            design="manipulated",
            n=200_000,
            smoke_n=20_000,
            command="analyze",
            flags=COMMON_ANALYZE
            + ("--type", "type2", "--order", "1", "--sharp", "--fuzzy", "--col-d", "d", "--workers", "1"),
            boot=500,
            dominant=("inference.bootstrap_s", "diagnostics.density_test_s"),
        ),
        Workload(
            name="analyze-balanced",
            why="no manipulation, n=50k, four covariates, B=1000 on one worker; the "
            "balance tests run and per-replicate fixed cost dominates",
            design="balanced",
            n=50_000,
            smoke_n=10_000,
            command="analyze",
            flags=COMMON_ANALYZE
            + tuple(a for k in range(1, 5) for a in ("--covariate", f"w{k}"))
            # One worker: with two, the thread pool stalls whenever the shared
            # host takes time from either vCPU, and wall time spread by 25%
            # over ten seeds. So no workload takes the --workers pool path.
            + ("--sharp", "--workers", "1"),
            boot=1000,
            dominant=("diagnostics.balance_test_s",),
        ),
        Workload(
            name="plotdata-manipulated",
            why="plotdata on the 200k sample, 10k bins: one boundary_density call per "
            "bin over all rows and no bootstrap; many points over one sample",
            design="manipulated",
            n=200_000,
            smoke_n=20_000,
            command="plotdata",
            flags=("--cutoff", "0"),
            # --bin-width 0.005, the CLI default, gives 37k-42k bins on this
            # design and a 20 s run. 10k bins keep one run near 6 s, so a
            # measured run holds several and reports their median, while
            # boundary_density is still most of the run.
            plot_bins=10_000,
            dominant=("localfit.boundary_density_s",),
        ),
    )
}
SMOKE_PLOT_BINS = 2_000

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. On a
# shared 2-vCPU host, wall and CPU time move by 4-11% from run to run
# (interquartile range over ten seeds), and by more while the host steals CPU
# time, so their bounds are the widest allowed; peak RSS moves by under 1%. passed_frac is 1 - failed/attempted, reported as a pass
# share so that the metric is never 0.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("passed_frac", "ratio", "higher", 0.01),
)
# From the traced run. The end-to-end metric each should move, and where:
#   mrdd.import_s, cli.ingest_*: setup_s everywhere; wall_s most on plotdata.
#   inference.bootstrap_*: wall_s and cpu_s, ~63% of analyze-manipulated and
#     ~25% of analyze-balanced.
#   diagnostics.density_*: wall_s, ~30% of analyze-manipulated.
#   diagnostics.balance_*: wall_s, ~65% of analyze-balanced; 0 elsewhere.
#   boundary.window_row_share: in-window rows of the four boundary fits over
#     4n; windowing the fits should move wall_s on both analyze workloads.
#   localfit.boundary_density_*: wall_s, ~60% of plotdata-manipulated.
#   *.rss_mb: the high-water mark after that stage, i.e. which stage sets
#     peak_rss_mb.
#   inference.bounds_from_draws_s, inference.ci_s, bounds.*: each under 0.2%
#     of any run; recorded, but no workload is built around them.
PER_LAYER = (
    ("mrdd.import_s", "s", "lower"),
    ("cli.ingest_s", "s", "lower"),
    ("cli.ingest_rss_mb", "MB", "lower"),
    ("cli.build_report_s", "s", "lower"),
    ("cli.build_report_self_s", "s", "lower"),
    ("cli.plotdata_bins", "count", "lower"),
    ("cli.stderr_lines", "count", "lower"),
    ("inference.bootstrap_s", "s", "lower"),
    ("inference.bootstrap_ms_per_replicate", "ms", "lower"),
    ("inference.replicates_failed", "count", "lower"),
    ("inference.bounds_from_draws_s", "s", "lower"),
    ("inference.ci_s", "s", "lower"),
    ("inference.rss_mb", "MB", "lower"),
    ("diagnostics.density_test_s", "s", "lower"),
    ("diagnostics.density_ms_per_replicate", "ms", "lower"),
    ("diagnostics.balance_test_s", "s", "lower"),
    ("diagnostics.balance_tests", "count", "lower"),
    ("diagnostics.balance_ms_per_replicate", "ms", "lower"),
    ("diagnostics.replicates_failed", "count", "lower"),
    ("diagnostics.rss_mb", "MB", "lower"),
    ("bootstrap.replicates_s", "s", "lower"),
    ("bootstrap.replicates", "count", "lower"),
    ("boundary.estimate_boundary_s", "s", "lower"),
    ("boundary.rot_bandwidth_calls", "count", "lower"),
    ("boundary.window_row_share", "ratio", "higher"),
    ("localfit.boundary_density_calls", "count", "lower"),
    ("localfit.boundary_density_s", "s", "lower"),
    ("localfit.boundary_density_p50_us", "us", "lower"),
    ("localfit.boundary_density_p99_us", "us", "lower"),
    ("bounds.sharp_s", "s", "lower"),
    ("bounds.fuzzy_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json, built from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": wl.name, "why": wl.why} for wl in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------- inputs


def generate_rows(design: str, n: int, seed: int) -> dict[str, np.ndarray]:
    """Appendix D mixture draws, written independently of ``mrdd.synth``.

    Latent score X* ~ N(0, 1). In the manipulated design a unit with X* < 0
    manipulates with probability p=0.1 and lands at an Exponential draw with
    density lambda=0.05 at 0+. The binary outcome 1{Phi(X* - a) >= U} with U
    uniform is drawn as the equal-in-law 1{X* - a >= Z} with Z normal, which
    needs no normal CDF; a = 0.5 treated, 1.0 untreated.

    The balanced design has no manipulation and draws X* in +- pairs, so the
    estimated density is the same on both sides of the cutoff and the
    density test accepts on every seed; the run then always takes the
    balance-test path it exists to measure. Four covariates are linear in x
    plus noise, so their balance verdicts still vary with the seed.
    """
    rng = np.random.default_rng([seed, 0 if design == "manipulated" else 1])
    x_star = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    if design == "manipulated":
        attempt = rng.uniform(size=n) < 0.1
        landing = rng.exponential(1.0 / 0.05, size=n)
        x = np.where((x_star < 0.0) & attempt, landing, x_star)
    else:
        half = n // 2
        x_star[half : 2 * half] = -x_star[:half]
        x = x_star
    d = x >= 0.0
    y = np.where(d, x_star - 0.5 >= noise, x_star - 1.0 >= noise)
    cols = {"x": x, "y": y.astype(int)}
    if design == "manipulated":
        cols["d"] = d.astype(int)
    else:
        for k, slope in enumerate((0.5, -1.0, 2.0, 0.25), start=1):
            cols[f"w{k}"] = slope * x + rng.standard_normal(n)
    return cols


def write_csv(path: Path, cols: dict[str, np.ndarray]) -> None:
    """Write columns as CSV; floats with repr so they read back exactly."""
    names = list(cols)
    lists = [cols[k].tolist() for k in names]
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*lists))
    os.replace(tmp, path)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every .py file below root."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- processes


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr_lines: int


def run_child(argv: list[str], stderr_path: Path, timeout_s: float) -> ChildRun:
    """Run one child to completion, or kill it after ``timeout_s``.

    Resources are that child's alone: ``os.wait4`` returns the child's own
    rusage. ``RUSAGE_CHILDREN`` would carry the largest RSS of every earlier
    child into later runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as fh:
        stderr_lines = sum(1 for _ in fh)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr_lines=stderr_lines,
    )


def cli_args(wl: Workload, input_path: Path, out_path: Path, boot: int | None,
             bin_width: float | None) -> list[str]:
    args = [wl.command, str(input_path), *wl.flags]
    if boot is not None:
        args += ["--boot", str(boot)]
    if bin_width is not None:
        args += ["--bin-width", repr(bin_width)]
    return args + ["--out", str(out_path)]


def setup_snippet(wl: Workload, input_path: Path) -> str:
    """Python source that imports the CLI and ingests the input as the workload does."""
    kwargs: dict = {"cutoff": 0.0}
    if wl.command == "analyze":
        kwargs.update(y_low=0.0, y_high=1.0)
        if "--col-d" in wl.flags:
            kwargs["col_d"] = wl.flags[wl.flags.index("--col-d") + 1]
        covs = tuple(wl.flags[i + 1] for i, a in enumerate(wl.flags) if a == "--covariate")
        if covs:
            kwargs["covariates"] = covs
    return f"import mrdd.cli; mrdd.cli.ingest({str(input_path)!r}, **{kwargs!r})"


# ---------------------------------------------------------------- correctness


def _strict_json(raw: bytes):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


def _contains(outer, inner) -> bool:
    return outer[0] <= inner[0] + FLOAT_SLACK and inner[1] <= outer[1] + FLOAT_SLACK


def check_analyze(wl: Workload, raw: bytes, n: int, boot: int, tol: float) -> list[str]:
    try:
        report = _strict_json(raw)
    except ValueError as err:
        return [f"report is not strict JSON: {err}"]
    problems = []
    try:
        block = report["blocks"][0]
        crude = block["identified_set"]
        if report["n"] != n:
            problems.append(f"report n {report['n']} != {n}")
        for label in ("ci_fixed_r", "ci_random_r"):
            if not _contains(block[label], crude):
                problems.append(f"{label} {block[label]} does not contain the set {crude}")
        sharp = block["sharp_set"]
        if sharp is None or not _contains(crude, sharp):
            problems.append(f"sharp set {sharp} not inside crude set {crude}")
        if wl.design == "manipulated":
            if report["verdict"] != "UseBounds":
                problems.append(f"verdict {report['verdict']} != UseBounds")
            fuzzy = block["fuzzy_set"]
            if fuzzy is None or max(abs(fuzzy[0] - crude[0]), abs(fuzzy[1] - crude[1])) > FLOAT_SLACK:
                problems.append(f"fuzzy set {fuzzy} != type-2 set {crude}")
            target = POP_CRUDE_P01_L005
        else:
            density = report["protocol"]["density"]
            balance = report["protocol"]["balance"] or []
            if density["p_value"] < ALPHA:
                problems.append(f"density test rejected (p={density['p_value']})")
            if len(balance) != 4:
                problems.append(f"{len(balance)} balance tests ran, expected 4")
            short = [b["covariate"] for b in balance if b["replications"] < MIN_REPLICATION_SHARE * boot]
            if short:
                problems.append(f"balance tests with < {MIN_REPLICATION_SHARE:.0%} replications: {short}")
            target = (POP_THETA_P0, POP_THETA_P0)
        err = max(abs(crude[0] - target[0]), abs(crude[1] - target[1]))
        if not err <= tol:
            problems.append(f"identified set {crude} is {err:.4f} from {list(target)} (tolerance {tol:.3f})")
    except (KeyError, IndexError, TypeError) as err:
        problems.append(f"report lacks an expected field: {err!r}")
    return problems


def check_plotdata(raw: bytes, n: int) -> list[str]:
    lines = raw.decode().splitlines()
    if not lines or lines[0] != "bin_left,bin_right,count,side,fitted_density":
        return ["plotdata header missing or changed"]
    try:
        total = sum(int(line.split(",")[2]) for line in lines[1:])
    except (IndexError, ValueError) as err:
        return [f"plotdata row unreadable: {err}"]
    if total != n:
        return [f"bin counts sum to {total}, expected {n}"]
    return []


@dataclass
class Attempt:
    run: ChildRun
    digest: str | None
    problems: list[str]


class DigestBook:
    """Output digests per (workload, seed, source tree, benchmark code).

    Stored under ``.bench_out`` so that runs in separate processes at one
    commit are held to byte-identical outputs; a changed source tree gets a
    fresh key, so nothing is compared across commits.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.book = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            self.book = {}

    def check(self, digest: str) -> list[str]:
        known = self.book.setdefault(self.key, digest)
        if known != digest:
            return [f"output differs from an earlier run with the same inputs ({digest[:12]} != {known[:12]})"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------- runs


class Bench:
    """One benchmark run: one workload and seed, end to end or traced."""

    def __init__(self, wl: Workload, seed: int, smoke: bool):
        self.wl, self.seed, self.smoke = wl, seed, smoke
        self.n = wl.smoke_n if smoke else wl.n
        self.boot = SMOKE_BOOT if smoke and wl.boot is not None else wl.boot
        self.bin_width: float | None = None  # set from the generated x range
        self.tol = SET_TOLERANCE * math.sqrt(wl.n / self.n)
        self.tag = f"{wl.name}-{seed}{'-smoke' if smoke else ''}"
        # Inputs, outputs and stderr of one benchmark run; removed at its end.
        self.work = OUT_DIR / f"work-{self.tag}"
        self.input_path = self.work / "input.csv"
        src_digest = tree_digest(SRC / "mrdd")
        self.sources = {"src": src_digest, "bench": tree_digest(BENCH_DIR)}
        self.digests = DigestBook(OUT_DIR / "digests.json", f"{self.tag}:{src_digest}:{self.sources['bench']}")
        self.n_children = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # Compile bytecode up front: installed packages ship it, so no timed
        # run should pay for it.
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(BENCH_DIR), quiet=1)
        cols = generate_rows(self.wl.design, self.n, self.seed)
        write_csv(self.input_path, cols)
        if self.wl.plot_bins is not None:
            bins = SMOKE_PLOT_BINS if self.smoke else self.wl.plot_bins
            self.bin_width = float(cols["x"].max() - cols["x"].min()) / bins

    def _paths(self, label: str) -> tuple[Path, Path]:
        self.n_children += 1
        stem = self.work / f"{label}-{self.n_children}"
        suffix = ".json" if self.wl.command == "analyze" else ".csv"
        return stem.with_suffix(suffix), stem.with_suffix(".stderr")

    def _run_child(self, argv: list[str], stderr_path: Path) -> ChildRun:
        return run_child(argv, stderr_path, max(1.0, self.deadline - time.monotonic()))

    def setup_time(self) -> ChildRun:
        _, err_path = self._paths("setup")
        run = self._run_child([sys.executable, "-c", setup_snippet(self.wl, self.input_path)], err_path)
        if run.exit_code != 0:
            raise RuntimeError(f"set-up child failed with exit code {run.exit_code}: {err_path.read_text()}")
        return run

    def attempt(self, traced_spans: Path | None = None) -> tuple[Attempt, bytes | None]:
        out_path, err_path = self._paths("traced" if traced_spans else "cli")
        args = cli_args(self.wl, self.input_path, out_path, self.boot, self.bin_width)
        if traced_spans is None:
            argv = [sys.executable, "-c", CLI_SNIPPET, *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(traced_spans), *args]
        run = self._run_child(argv, err_path)
        if run.exit_code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            return Attempt(run, None, [f"exit code {run.exit_code}: {' | '.join(tail)}"]), None
        if not out_path.exists():
            return Attempt(run, None, ["no output file"]), None
        raw = out_path.read_bytes()
        if self.wl.command == "analyze":
            problems = check_analyze(self.wl, raw, self.n, self.boot, self.tol)
        else:
            problems = check_plotdata(raw, self.n)
        digest = hashlib.sha256(raw).hexdigest()
        problems += self.digests.check(digest)
        return Attempt(run, digest, problems), raw

    def end_to_end(self, seconds: float) -> tuple[list[Attempt], dict, dict]:
        setups = [self.setup_time().wall_s for _ in range(SETUP_REPEATS)]
        attempts: list[Attempt] = []
        start = time.perf_counter()
        while True:
            attempts.append(self.attempt()[0])
            elapsed = time.perf_counter() - start
            typical = statistics.median(a.run.wall_s for a in attempts)
            if elapsed + typical > seconds:
                break
        failed = sum(1 for a in attempts if a.problems)
        metrics = {
            "wall_s": statistics.median(a.run.wall_s for a in attempts),
            "cpu_s": statistics.median(a.run.cpu_s for a in attempts),
            "peak_rss_mb": statistics.median(a.run.peak_rss_mb for a in attempts),
            "setup_s": statistics.median(setups),
            "passed_frac": 1.0 - failed / len(attempts),
        }
        return attempts, metrics, {"setup_runs_s": setups}

    def per_layer(self) -> tuple[list[Attempt], dict, dict]:
        plain, plain_raw = self.attempt()
        spans_path = self.work / "spans.json"
        traced, traced_raw = self.attempt(traced_spans=spans_path)
        if traced.digest is not None and plain_raw != traced_raw:
            traced.problems.append("traced output differs from the untraced output")
        try:
            trace = json.loads(spans_path.read_text())
        except (FileNotFoundError, ValueError):
            trace = {"import_s": 0.0, "absent": [], "spans": []}
            traced.problems.append("traced run wrote no spans")
        bins = plain_raw.count(b"\n") - 1 if plain_raw and self.wl.command == "plotdata" else 0
        metrics = layer_metrics(
            trace, self.n, self.boot or 0, plain.run, traced.run, bins
        )
        extra = {"absent_names": trace["absent"], "dominance": dominance(self.wl, metrics),
                 "spans": trace["spans"]}
        return [plain, traced], metrics, extra


# ---------------------------------------------------------------- trace analysis


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None and "end" in s:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _merged_length(children.get(s["id"], []))
        for s in spans
        if "end" in s
    }


def layer_metrics(trace: dict, n: int, boot: int, plain: ChildRun, traced: ChildRun,
                  plotdata_bins: int) -> dict:
    spans = [s for s in trace["spans"] if "end" in s]
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def fact(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def rss_after(name):
        return max((s["rss_mb"] for s in named(name)), default=0.0)

    def per_replicate_ms(seconds, replicates):
        return 1000.0 * seconds / replicates if replicates else 0.0

    density_calls = [s["end"] - s["start"] for s in named("localfit.boundary_density")]
    density_tests = named("diagnostics.density_test")
    balance_tests = named("diagnostics.balance_test")
    n_boot = len(named("inference.bootstrap"))
    n_fits = len(named("boundary.estimate_boundary"))
    build = total("cli.build_report")
    build_self = sum(own[s["id"]] for s in named("cli.build_report"))
    tested = density_tests + balance_tests
    return {
        "mrdd.import_s": trace["import_s"],
        "cli.ingest_s": total("cli.ingest"),
        "cli.ingest_rss_mb": rss_after("cli.ingest"),
        "cli.build_report_s": build,
        "cli.build_report_self_s": build_self,
        "cli.plotdata_bins": plotdata_bins,
        "cli.stderr_lines": plain.stderr_lines,
        "inference.bootstrap_s": total("inference.bootstrap"),
        "inference.bootstrap_ms_per_replicate": per_replicate_ms(total("inference.bootstrap"), boot * n_boot),
        "inference.replicates_failed": fact("inference.bootstrap", "n_failed"),
        "inference.bounds_from_draws_s": total("inference.bounds_from_draws"),
        "inference.ci_s": total("inference.ci"),
        "inference.rss_mb": rss_after("inference.bootstrap"),
        "diagnostics.density_test_s": total("diagnostics.density_test"),
        "diagnostics.density_ms_per_replicate": per_replicate_ms(
            total("diagnostics.density_test"), boot * len(density_tests)),
        "diagnostics.balance_test_s": total("diagnostics.balance_test"),
        "diagnostics.balance_tests": len(balance_tests),
        "diagnostics.balance_ms_per_replicate": per_replicate_ms(
            total("diagnostics.balance_test"), boot * len(balance_tests)),
        "diagnostics.replicates_failed": sum(boot - s.get("replications", boot) for s in tested),
        "diagnostics.rss_mb": rss_after("diagnostics.protocol"),
        "bootstrap.replicates_s": total("bootstrap.run_replicates"),
        "bootstrap.replicates": fact("bootstrap.run_replicates", "replicates"),
        "boundary.estimate_boundary_s": total("boundary.estimate_boundary"),
        "boundary.rot_bandwidth_calls": len(named("rot_bandwidth")),
        "boundary.window_row_share": fact("boundary.estimate_boundary", "window_rows") / (4 * n * n_fits)
        if n_fits else 0.0,
        "localfit.boundary_density_calls": len(density_calls),
        "localfit.boundary_density_s": sum(density_calls),
        "localfit.boundary_density_p50_us": 1e6 * float(np.percentile(density_calls, 50)) if density_calls else 0.0,
        "localfit.boundary_density_p99_us": 1e6 * float(np.percentile(density_calls, 99)) if density_calls else 0.0,
        "bounds.sharp_s": total("bounds.sharp"),
        "bounds.fuzzy_s": total("bounds.fuzzy"),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.coverage": (build - build_self) / build if build else 0.0,
    }


# Top-level stages that together make up nearly all of a run.
STAGES = (
    "mrdd.import_s",
    "cli.ingest_s",
    "diagnostics.density_test_s",
    "diagnostics.balance_test_s",
    "inference.bootstrap_s",
    "localfit.boundary_density_s",
)


def dominance(wl: Workload, metrics: dict) -> dict:
    """Whether the workload's intended layers dominate its traced run."""
    largest = max(STAGES, key=lambda k: metrics[k])
    share = sum(metrics[k] for k in wl.dominant) / metrics["trace.wall_s"]
    return {
        "expected": list(wl.dominant),
        "largest_stage": largest,
        "expected_share_of_wall": share,
        "confirmed": largest in wl.dominant and share >= 0.5,
    }


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "git_sha": sha,
        "child_env": CHILD_ENV,
    }


def run(args: argparse.Namespace) -> int:
    if not (SRC / "mrdd" / "cli.py").is_file():
        print(f"error: no mrdd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed, args.smoke)
    try:
        bench.prepare()
        input_sha256 = sha256_file(bench.input_path)
        if args.trace:
            attempts, metrics, extra = bench.per_layer()
            names = [name for name, *_ in PER_LAYER]
        else:
            attempts, metrics, extra = bench.end_to_end(args.seconds)
            names = [name for name, *_ in END_TO_END]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.digests.save()
    failed = sum(1 for a in attempts if a.problems)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "n": bench.n,
        "boot": bench.boot,
        "bin_width": bench.bin_width,
        "environment": environment(),
        "sources_sha256": bench.sources,
        "input_sha256": input_sha256,
        "runs": [{**vars(a.run), "output_sha256": a.digest, "problems": a.problems} for a in attempts],
        "metrics": metrics,
        **extra,
    }
    result_path = OUT_DIR / f"result-{bench.tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for a in attempts:
        for problem in a.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        dom = extra["dominance"]
        verdict = "confirmed" if dom["confirmed"] else "NOT confirmed"
        print(f"dominant layer {verdict}: largest stage {dom['largest_stage']}, "
              f"expected {'+'.join(dom['expected'])} at {dom['expected_share_of_wall']:.0%} of traced wall")
        if extra["absent_names"]:
            print(f"absent names (not traced): {', '.join(extra['absent_names'])}")
    for name in names:
        print(f"{name} {metrics[name]:.6g} {UNITS[name]}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"small n and B={SMOKE_BOOT}: a self-test of the harness, not a measurement")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
