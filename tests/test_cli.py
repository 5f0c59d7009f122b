import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrdd

from mrdd import (
    AppendixDSpec,
    gen_appendix_d,
    gen_counterexample_e,
    gen_typed,
    oracle_appendix_d,
    write_typed_csv,
)
from mrdd.cli import ingest, main
from mrdd.errors import EmptyInput, MissingColumn, MrddError, ParseError


@pytest.fixture()
def typed_file(tmp_path):
    ts = gen_typed({0: 0.7, 2: 0.3}, n=4_000, seed=3)
    path = tmp_path / "sample.csv"
    write_typed_csv(ts, str(path))
    return str(path), ts


def run_cli(*argv):
    return main(list(argv))


class TestIngest:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.5,1.0\n-0.25,0.0\n")
        data = ingest(str(path), cutoff=0.0)
        assert data.n == 2
        assert data.xs[1] == -0.25

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,z\n0.5,1.0\n")
        with pytest.raises(MissingColumn):
            ingest(str(path), cutoff=0.0)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.5,1.0\noops,2.0\n")
        with pytest.raises(ParseError) as excinfo:
            ingest(str(path), cutoff=0.0)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_carries_line(self, tmp_path, bad):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y\n0.5,1.0\n-0.5,0.0\n{bad},1.0\n")
        with pytest.raises(ParseError, match="'x'") as excinfo:
            ingest(str(path), cutoff=0.0)
        assert excinfo.value.line == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptyInput):
            ingest(str(path), cutoff=0.0)

    def test_round_trip_preserves_columns(self, typed_file):
        path, ts = typed_file
        data = ingest(path, cutoff=0.0, col_d="d")
        assert np.array_equal(data.xs, ts.data.xs)
        assert np.array_equal(data.ys, ts.data.ys)
        assert np.array_equal(data.d, ts.data.d)

    def test_covariate_ingestion(self, typed_file):
        path, ts = typed_file
        data = ingest(path, cutoff=0.0, covariates=("x_star",))
        assert np.array_equal(data.covariates["x_star"], ts.x_star)


class TestAnalyze:
    def test_end_to_end_report(self, typed_file, tmp_path):
        path, _ = typed_file
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
            "--boot", "64", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["verdict"] in {"UseBounds", "PointIdentified", "DesignSuspect"}
        block = report["blocks"][0]
        for key in (
            "order", "discontinuity_t", "discontinuity_p", "r", "bandwidths",
            "point_estimate", "point_se", "identified_set", "ci_fixed_r", "ci_random_r",
        ):
            assert key in block, key
        lo, hi = block["identified_set"]
        assert block["ci_fixed_r"][0] <= lo and hi <= block["ci_fixed_r"][1]
        assert block["ci_random_r"][0] <= lo and hi <= block["ci_random_r"][1]

    def test_byte_identical_runs(self, typed_file, tmp_path):
        path, _ = typed_file
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_cli(
                "analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                "--boot", "64", "--seed", "1", "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_invariance(self, typed_file, tmp_path):
        path, _ = typed_file
        outs = []
        for name, workers in (("w1.json", "1"), ("w4.json", "4")):
            out = tmp_path / name
            run_cli(
                "analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                "--boot", "64", "--seed", "1", "--workers", workers, "--out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sharp_and_fuzzy_blocks(self, typed_file, tmp_path):
        path, _ = typed_file
        out = tmp_path / "r.json"
        code = run_cli(
            "analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
            "--boot", "64", "--seed", "2", "--sharp", "--fuzzy", "--col-d", "d",
            "--out", str(out),
        )
        assert code == 0
        block = json.loads(out.read_text())["blocks"][0]
        assert block["sharp_set"] is not None
        # sharp refines the reported identified set
        assert block["sharp_set"][0] >= block["identified_set"][0] - 1e-9
        assert block["sharp_set"][1] <= block["identified_set"][1] + 1e-9
        assert block["fuzzy_status"] in {"Informative", "Degenerate", "Refuted"}

    def test_bad_alpha_exits_2(self, typed_file):
        path, _ = typed_file
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--alpha", "1.5") == 2

    def test_missing_cutoff_exits_2(self, typed_file):
        path, _ = typed_file
        assert run_cli("analyze", path, "--y-min", "0", "--y-max", "1") == 2

    def test_missing_file_exits_3(self):
        assert run_cli("analyze", "/nonexistent.csv", "--cutoff", "0",
                       "--y-min", "0", "--y-max", "1") == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_row_exits_3(self, typed_file, tmp_path, capsys, bad):
        path, _ = typed_file
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index("x")] = bad
        lines[5] = ",".join(row)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", str(broken), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--boot", "64", "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "line 6" in capsys.readouterr().err

    def test_non_binary_treatment_exits_3(self, typed_file, tmp_path, capsys):
        path, _ = typed_file
        lines = Path(path).read_text().splitlines()
        row = lines[5].split(",")
        row[lines[0].split(",").index("d")] = "0.5"
        lines[5] = ",".join(row)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", str(broken), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--col-d", "d", "--fuzzy", "--boot", "64", "--out", str(tmp_path / "r.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "'d'" in err

    def test_too_many_failed_replicates_exits_3(self, tmp_path, capsys):
        # five points left of the cutoff: over 10% of resamples draw fewer
        # than the three distinct ones the left density fit needs
        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.uniform(-1.0, 0.0, 5), rng.uniform(0.0, 1.0, 2000)])
        ys = rng.uniform(size=xs.size)
        sample = tmp_path / "sparse.csv"
        sample.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        code = run_cli("analyze", str(sample), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--boot", "100", "--bw-mean-left", "2", "--bw-dens-left", "2",
                       "--bw-mean-right", "0.5", "--bw-dens-right", "0.5",
                       "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "bootstrap replicates failed" in capsys.readouterr().err

    def test_module_entry_point(self, typed_file):
        path, _ = typed_file
        src = str(Path(mrdd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mrdd.cli", "analyze", path, "--y-min", "0", "--y-max", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "--cutoff is required" in proc.stderr

    def test_internal_error_exits_4(self, typed_file, monkeypatch):
        # any package error outside the config and data families
        path, _ = typed_file
        from mrdd import cli as cli_mod

        class Boom(MrddError):
            pass

        def boom(cfg, data):
            raise Boom("invariant violated")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1") == 4

    def test_duplicate_fraction_reported(self, typed_file, tmp_path):
        path, _ = typed_file
        out = tmp_path / "r.json"
        run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                "--boot", "64", "--seed", "3", "--out", str(out))
        report = json.loads(out.read_text())
        assert 0.0 <= report["duplicate_x_fraction"] < 0.01

    def test_config_file_and_flag_precedence(self, typed_file, tmp_path):
        path, _ = typed_file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cutoff = 0\ny_min = 0\ny_max = 1\nboot = 64\nseed = 5\norder = 0\n")
        out1 = tmp_path / "one.json"
        code = run_cli("analyze", path, "--config", str(cfgfile), "--out", str(out1))
        assert code == 0
        assert json.loads(out1.read_text())["blocks"][0]["order"] == 0
        out2 = tmp_path / "two.json"
        code = run_cli("analyze", path, "--config", str(cfgfile), "--order", "1", "--out", str(out2))
        assert code == 0
        assert json.loads(out2.read_text())["blocks"][0]["order"] == 1

    def test_json_config(self, typed_file, tmp_path):
        path, _ = typed_file
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"cutoff": 0, "y_min": 0, "y_max": 1, "boot": 64}))
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--config", str(cfgfile), "--out", str(out)) == 0

    def test_unknown_config_key_exits_2(self, typed_file, tmp_path):
        path, _ = typed_file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cutof = 0\n")
        assert run_cli("analyze", path, "--config", str(cfgfile)) == 2

    @pytest.mark.parametrize("line", ["r_mode = random", "bin_width = 0.01"])
    def test_removed_config_keys_exit_2(self, typed_file, tmp_path, capsys, line):
        path, _ = typed_file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"cutoff = 0\ny_min = 0\ny_max = 1\n{line}\n")
        assert run_cli("analyze", path, "--config", str(cfgfile)) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.slow
    def test_end_to_end_against_oracle(self, tmp_path):
        # strongly manipulated sample: the protocol must reject the density
        # and the reported set must sit near the population bounds
        ts = gen_appendix_d(AppendixDSpec(p=0.3, lam=0.3, n=200_000, seed=4))
        sample = tmp_path / "d33.csv"
        write_typed_csv(ts, str(sample))
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", str(sample), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
            "--type", "type2", "--order", "1", "--boot", "200", "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "UseBounds"
        row = oracle_appendix_d(0.3, 0.3)
        lo, hi = report["blocks"][0]["identified_set"]
        assert lo == pytest.approx(row.crude_lower, abs=0.03)
        assert hi == pytest.approx(row.crude_upper, abs=0.03)


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = run_cli(
                "simulate", "appendix-d", "--p", "0.1", "--lambda", "0.05",
                "--n", "1000", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counterexample_monotone(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli("simulate", "counterexample-e", "--n", "1000", "--seed", "3",
                       "--out", str(out))
        assert code == 0
        from mrdd import read_typed_csv

        ts = read_typed_csv(str(out))
        assert ts.data.n == 1000
        assert np.all(ts.data.xs >= ts.x_star)

    def test_typed_shares(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli("simulate", "typed", "--share", "0=0.5", "--share", "2=0.5",
                       "--n", "2000", "--seed", "1", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "type shares" in printed and "manipulation fraction" in printed

    def test_unknown_dgp_exits_2(self, tmp_path):
        assert run_cli("simulate", "nope", "--out", str(tmp_path / "x.csv")) == 2


class TestOracle:
    def test_row2_values(self, capsys):
        assert run_cli("oracle", "--p", "0.1", "--lambda", "0.3") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crude"][0] == pytest.approx(0.032, abs=0.002)
        assert payload["crude"][1] == pytest.approx(0.190, abs=0.002)
        assert payload["r"] == pytest.approx(0.867, abs=0.002)

    def test_no_manipulation_degenerates_to_point(self, capsys):
        assert run_cli("oracle", "--p", "0", "--lambda", "0.2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == pytest.approx(1.0, abs=1e-9)
        for key in ("crude", "sharp"):
            assert payload[key][0] == pytest.approx(0.150, abs=0.001)
            assert payload[key][1] == pytest.approx(0.150, abs=0.001)

    def test_everyone_manipulating_exits_2(self, capsys):
        # p = 1 leaves no density below the cutoff
        assert run_cli("oracle", "--p", "1", "--lambda", "0.2") == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "p must" in err


class TestPlotdata:
    def test_cutoff_is_bin_edge(self, typed_file, tmp_path):
        path, _ = typed_file
        out = tmp_path / "bins.csv"
        code = run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.25",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "bin_left,bin_right,count,side,fitted_density"
        edges = sorted({float(r.split(",")[0]) for r in rows} | {float(r.split(",")[1]) for r in rows})
        assert any(abs(e) < 1e-12 for e in edges)
        sides = {r.split(",")[3] for r in rows}
        assert sides <= {"left", "right"}

    def test_counts_match_total(self, typed_file, tmp_path):
        path, ts = typed_file
        out = tmp_path / "bins.csv"
        run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.5", "--out", str(out))
        rows = out.read_text().strip().splitlines()[1:]
        total = sum(int(r.split(",")[2]) for r in rows)
        assert total == ts.data.n

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clipping_reported_in_one_line(self, typed_file, tmp_path, capfd):
        path, _ = typed_file
        code = run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.05",
                       "--out", str(tmp_path / "bins.csv"))
        assert code == 0
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert " bins clipped to " in err[0]

    def test_empty_input_exits_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n")
        assert run_cli("plotdata", str(empty), "--cutoff", "0",
                       "--out", str(tmp_path / "o.csv")) == 3

    @pytest.mark.slow
    def test_smooth_density_bins_near_cutoff(self, tmp_path):
        ts = gen_counterexample_e(1_000_000, seed=2)
        sample = tmp_path / "e.csv"
        write_typed_csv(ts, str(sample))
        out = tmp_path / "bins.csv"
        code = run_cli("plotdata", str(sample), "--cutoff", "0", "--bin-width", "0.01",
                       "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        below = next(r for r in rows if abs(float(r[1])) < 1e-12)
        above = next(r for r in rows if abs(float(r[0])) < 1e-12)
        n_below, n_above = int(below[2]), int(above[2])
        se = np.sqrt(n_below + n_above)
        assert abs(n_above - n_below) < 3 * se
