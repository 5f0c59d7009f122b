"""Run ``mrdd.cli.main`` with spans recorded around the package's public names.

Usage: ``python3 bench/traced.py SPANS_JSON CLI_ARG...`` with ``src`` on
``PYTHONPATH``. The CLI arguments are passed to ``mrdd.cli.main`` unchanged;
the process exits with its return code after writing the spans.

Each name is wrapped in the module namespace where its caller looks it up,
so the package itself is not modified and its output stays byte-identical.
A span records its name, start, end, parent span id and the RSS high-water
mark at its end; a few spans also record facts read from the returned value.
Spans are kept in memory and written once, at exit. Names that a later
refactor removes are listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time

# (module, attribute, span name). The attribute is looked up in the module
# that calls it, which is where a replacement takes effect.
WRAPPED = (
    ("mrdd.cli", "ingest", "cli.ingest"),
    ("mrdd.cli", "build_report", "cli.build_report"),
    ("mrdd.cli", "run_sequential_protocol", "diagnostics.protocol"),
    ("mrdd.cli", "bootstrap_boundary_replicates", "inference.bootstrap"),
    ("mrdd.cli", "bounds_from_draws", "inference.bounds_from_draws"),
    ("mrdd.cli", "imbens_manski_ci", "inference.ci"),
    ("mrdd.cli", "sharp_type2_bounds", "bounds.sharp"),
    ("mrdd.cli", "fuzzy_bounds", "bounds.fuzzy"),
    ("mrdd.cli", "boundary_density", "localfit.boundary_density"),
    ("mrdd.cli", "rot_bandwidth", "rot_bandwidth"),
    ("mrdd.diagnostics", "density_discontinuity_test", "diagnostics.density_test"),
    ("mrdd.diagnostics", "balance_test", "diagnostics.balance_test"),
    ("mrdd.inference", "estimate_boundary", "boundary.estimate_boundary"),
    ("mrdd.boundary", "rot_bandwidth", "rot_bandwidth"),
    ("mrdd.diagnostics", "run_replicates", "bootstrap.run_replicates"),
    ("mrdd.inference", "run_replicates", "bootstrap.run_replicates"),
)


def _facts(span_name, result) -> dict:
    """Deterministic facts read from a wrapped call's return value.

    A return value whose shape has changed yields no facts rather than an
    error, so the traced run still completes; the derived metrics read 0.
    """
    try:
        return _read_facts(span_name, result)
    except (AttributeError, TypeError, ValueError):
        return {}


def _read_facts(span_name, result) -> dict:
    if span_name in ("diagnostics.density_test", "diagnostics.balance_test"):
        return {"replications": int(result.replications)}
    if span_name == "inference.bootstrap":
        return {"n_failed": int(result.n_failed), "n_ok": int(result.draws.shape[0])}
    if span_name == "boundary.estimate_boundary":
        c = result.n_effective
        return {"window_rows": int(c.mean_left + c.mean_right + c.dens_left + c.dens_right)}
    if span_name == "bootstrap.run_replicates":
        values, _ = result
        return {"replicates": int(values.shape[0])}
    return {}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module_name: str, attr: str, span_name: str) -> None:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"name": span_name, "parent": stack[-1] if stack else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            span.update(_facts(span_name, result))
            return result

        setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import mrdd.cli  # noqa: F401  (timed: the import cost users pay)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    for module_name, attr, span_name in WRAPPED:
        tracer.wrap(module_name, attr, span_name)
    code = 1
    try:
        code = sys.modules["mrdd.cli"].main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(
                {"import_s": import_s, "exit_code": code, "absent": tracer.absent, "spans": tracer.spans},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
