"""Self-test of the benchmark harness: ``python3 -m pytest bench``.

Smoke runs (small n, B=50) exercise input generation, the correctness gate,
per-process resource capture and tracing in seconds. They check the harness,
not the program's speed.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_run  # dataclasses look their module up here
_spec.loader.exec_module(bench_run)

# At smoke size (n=20k) the density test has little power, so whether the
# manipulated design gives UseBounds depends on the seed; this one does.
SMOKE_SEED = 3


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == bench_run.benchmark_spec()


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_smoke_end_to_end(workload):
    args = ("--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", "0", "--smoke")
    first, again = _result(_run(*args)), _result(_run(*args))
    for res in (first, again):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [name for name, *_ in bench_run.END_TO_END]
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_trace_counts_layers():
    res = _result(_run("--workload", "analyze-manipulated", "--seed", str(SMOKE_SEED),
                       "--seconds", "1", "--trace", "1", "--smoke"))
    assert res["correct"] and res["attempted"] == 2
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == [name for name, *_ in bench_run.PER_LAYER]
    assert metrics["boundary.rot_bandwidth_calls"] == 8
    assert metrics["bootstrap.replicates"] == 2 * bench_run.SMOKE_BOOT
    assert metrics["diagnostics.balance_tests"] == 0
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["inference.bootstrap_s"] > 0 and metrics["diagnostics.density_test_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "analyze-manipulated", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _report(crude, sharp, fuzzy, ci, verdict="UseBounds", n=100):
    return json.dumps({
        "n": n, "verdict": verdict,
        "blocks": [{"identified_set": crude, "sharp_set": sharp, "fuzzy_set": fuzzy,
                    "ci_fixed_r": ci, "ci_random_r": ci}],
    }).encode()


def test_gate_rejects_bad_reports():
    wl = bench_run.WORKLOADS["analyze-manipulated"]
    good = ([0.06, 0.18], [0.07, 0.18], [0.06, 0.18], [0.0, 0.3])

    def problems(crude, sharp, fuzzy, ci, **kw):
        return bench_run.check_analyze(wl, _report(crude, sharp, fuzzy, ci, **kw), 100, 500, 0.15)

    assert problems(*good) == []
    assert problems(*good, verdict="PointIdentified")
    assert problems(*good, n=99)
    assert problems([0.06, 0.18], [0.05, 0.18], [0.06, 0.18], [0.0, 0.3])  # sharp outside crude
    assert problems([0.06, 0.18], [0.07, 0.18], [0.07, 0.18], [0.0, 0.3])  # fuzzy != type 2
    assert problems([0.06, 0.18], [0.07, 0.18], [0.06, 0.18], [0.1, 0.3])  # CI misses the set
    assert problems([0.5, 0.6], [0.5, 0.6], [0.5, 0.6], [0.0, 0.7])  # far from the population
    assert bench_run.check_analyze(wl, b'{"n": NaN}', 100, 500, 0.15)
    header = "bin_left,bin_right,count,side,fitted_density\n"
    assert bench_run.check_plotdata((header + "0,1,60,right,0.5\n0,1,40,right,0.5\n").encode(), 100) == []
    assert bench_run.check_plotdata((header + "0,1,60,right,0.5\n").encode(), 100)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 6.0, "end": 7.0},
    ]
    own = bench_run.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
