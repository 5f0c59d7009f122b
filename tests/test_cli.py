import contextlib
import io
import json
import locale
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import mrdd
from mrdd import cli, inference
from mrdd import report as report_mod

from mrdd import (
    BootstrapConfig,
    FitConfig,
    FitSpec,
    KernelKind,
    Side,
    TypeAssumption,
    bootstrap_boundary_replicates,
    boundary_density,
    clamp_interval,
    estimate_boundary,
    fuzzy_bounds,
    gen_appendix_d,
    gen_counterexample_e,
    gen_typed,
    local_poly_fit,
    oracle_appendix_d,
    rot_bandwidth,
    sharp_type2_bounds,
    write_typed_csv,
)
from mrdd.boundary import sample_means
from mrdd.inference import boundary_pass
from mrdd.cli import MAX_PLOT_BINS, ingest, main
from mrdd.errors import DataError, EmptyInput, MissingColumn, ParseError
from mrdd.localfit import DENSITY_FLOOR, local_weights
from reports import assert_block_matches_table, block_of


@pytest.fixture()
def typed_file(tmp_path):
    ts = gen_typed({0: 0.7, 2: 0.3}, n=4_000, seed=3)
    path = tmp_path / "sample.csv"
    write_typed_csv(ts, str(path))
    return str(path), ts


def run_cli(*argv):
    return main(list(argv))


def undecodable(data: bytes) -> bool:
    """Whether ``open()``'s default encoding rejects ``data``."""
    try:
        data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return True
    return False


#: The UTF-8 byte-order mark that spreadsheet programs put before a CSV file's header
BOM = b"\xef\xbb\xbf"
needs_utf8 = pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="a byte-order mark is read as one only in UTF-8 text",
)


# awkward CSV fields: what float() and np.loadtxt read alike, and what only one reads
AWKWARD_TOKENS = [
    "0", "1", "-0.0", "0.5", "-2.25", "1e5", "5e-324", "1e308", "+1", ".5", "5.", "1e",
    "1_5", " 2.5 ", '" 2.5 "', '"3"', '"1,5"', '"1"2', '"4\n"', '"a\nb"', '""', '"',
    "inf", "-inf", "nan", "NaN", "Infinity", "0x10", "", "  ", "foo", "\u0661", " \"1\"",
]
HEADERS = ["x,y", "x,y,d,c", "y,x,c,d", "x,x,y,c,d", "c,d,y,x,x", "x", "x,c", "y,d,x,c,extra"]


@st.composite
def csv_texts(draw):
    """CSV text over AWKWARD_TOKENS: ragged rows, blank lines, CRLF or lone CR, maybe no rows."""
    field = st.one_of(
        st.sampled_from(AWKWARD_TOKENS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    row = st.lists(field, min_size=0, max_size=6).map(",".join)
    rows = draw(st.lists(row, max_size=8))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([draw(st.sampled_from(HEADERS)), *rows])
    return text + eol if draw(st.booleans()) else text


def ingest_outcome(path, kwargs):
    try:
        return ingest(path, cutoff=0.0, **kwargs)
    except Exception as err:  # the reference's exception is the expected outcome
        return err


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("text, kwargs, message", [
        ("x,y\n0.5,1.0\n-0.5,0.0\noops,2.0\n", {}, "non-numeric running variable in column 'x' at line 4"),
        ("x,y\n0.5,1.0\n-0.5,oops\n", {}, "non-numeric outcome in column 'y' at line 3"),
        ("y,x\n1.0,0.5\n0.0,oops\n", {"col_y": "x"}, "non-numeric running variable in column 'x' at line 3"),
        ("x,y,d,w\n0.5,1,1,0\n-0.5,0,no,0\n", {"col_d": "d", "covariates": ("w",)},
         "non-numeric treatment in column 'd' at line 3"),
        ("x,y,w\n0.5,1,0\n-0.5,0,?\n", {"covariates": ("w",)}, "non-numeric covariate in column 'w' at line 3"),
    ], ids=["x", "y", "y-is-x", "d", "covariate"])
    def test_parse_error_names_its_column(self, tmp_path, text, kwargs, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            ingest(str(path), cutoff=0.0, **kwargs)
        assert str(excinfo.value) == message

    @needs_utf8
    @pytest.mark.parametrize("reader", ["columns", "rows"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, reader):
        # a quoted first name, a data row np.loadtxt reads and a covariate:
        # either reader gives the file's columns as if it had no mark
        text = b'"x",y,w\r\n0.5,1,2\r\n-0.25,0,3\r\n'
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(BOM + text)
        patch = mock.patch.object(cli, "_parse_columns", return_value=None) if reader == "rows" else contextlib.nullcontext()
        with patch:
            got, expected = (ingest(str(path), 0.0, covariates=("w",)) for path in (marked, plain))
        for name in ("xs", "ys"):
            assert same_bits(getattr(got, name), getattr(expected, name)), name
        assert same_bits(got.covariates["w"], expected.covariates["w"])

    @needs_utf8
    @pytest.mark.parametrize("bad, line", [("oops", 4), ("nan", 4)])
    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, capsys, bad, line):
        path = tmp_path / "marked.csv"
        path.write_bytes(BOM + f"x,y\n0.5,1\n\n{bad},0\n".encode())
        with pytest.raises(ParseError) as excinfo:
            ingest(str(path), cutoff=0.0)
        assert excinfo.value.line == line and str(excinfo.value).endswith(f"column 'x' at line {line}")
        assert run_cli("plotdata", str(path), "--cutoff", "0", "--out", str(tmp_path / "bins.csv")) == 3
        assert capsys.readouterr().err == f"data error: {excinfo.value}\n"

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

    def test_header_only_file_warns_nothing(self, tmp_path, capfd):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("plotdata", str(path), "--cutoff", "0", "--out", str(tmp_path / "o.csv")) == 3
        assert capfd.readouterr().err == f"data error: {path} contains no data rows\n"

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

    @pytest.mark.parametrize("text,line", [
        ("x,y\n1,0\n\nfoo,1\n", 4),
        ("x,y\n1,0\n\n2,nan\n", 4),
        ('x,y,note\n1,0,"a\nb"\n\n2,1,c\nfoo,1,d\n', 6),
        ('x,y,note\n1,0,"a\nb"\n\n2,1,c\ninf,1,d\n', 6),
    ])
    def test_parse_error_line_counts_blank_and_quoted_lines(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            ingest(str(path), cutoff=0.0)
        assert excinfo.value.line == line
        assert str(excinfo.value).endswith(f"at line {line}")

    @pytest.mark.parametrize("note", ["note", '"two-line\r\nnote"'], ids=["one-line", "two-line"])
    def test_column_reader_needs_no_row_reader(self, tmp_path, note):
        # CRLF endings, blank lines, quoted and padded fields, a ragged
        # unrequested column and a repeated header name (last one wins); a
        # quoted header name may span two lines
        path = tmp_path / "d.csv"
        path.write_text(f'y,x,c,x,{note}\r\n1,9,0.5,"-0.25",a\r\n\r\n0, 9 ,-0.0, 5e-324 \r\n1,9,2,3\r\n',
                        newline="")
        with mock.patch.object(cli, "_read_rows", side_effect=AssertionError("row reader ran")):
            data = ingest(str(path), cutoff=0.0, covariates=("c",))
        assert data.xs.tolist() == [-0.25, 5e-324, 3.0]
        assert data.ys.tolist() == [1.0, 0.0, 1.0]
        assert data.covariates["c"].tobytes() == np.array([0.5, -0.0, 2.0]).tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=csv_texts(), d=st.booleans(), cov=st.booleans())
    def test_column_reader_matches_row_reader(self, text, d, cov):
        kwargs = {"col_d": "d" if d else None, "covariates": ("c",) if cov else ()}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            with mock.patch.object(cli, "_parse_columns", return_value=None):
                expected = ingest_outcome(path, kwargs)
            got = ingest_outcome(path, kwargs)
        if isinstance(expected, Exception):
            assert type(got) is type(expected)
            assert getattr(got, "line", None) == getattr(expected, "line", None)
            assert str(got) == str(expected)
        else:
            assert isinstance(got, mrdd.Dataset)
            for name in ("xs", "ys", "d"):
                assert same_bits(getattr(got, name), getattr(expected, name)), name
            assert got.covariates.keys() == expected.covariates.keys()
            for name, column in expected.covariates.items():
                assert same_bits(got.covariates[name], column), name


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
        block = block_of(report)
        assert_block_matches_table(block)
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
        block = block_of(json.loads(out.read_text()))
        assert_block_matches_table(block)
        assert block["sharp_set"] is not None
        # sharp refines the reported identified set
        assert block["sharp_set"][0] >= block["identified_set"][0] - 1e-9
        assert block["sharp_set"][1] <= block["identified_set"][1] + 1e-9
        assert block["fuzzy_status"] in {"Informative", "Degenerate", "Refuted"}

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_sharp_and_fuzzy_sets_equal_full_sample_fits(self, order, kernel):
        # the report reads the sharp window and d+- from the bootstrap plan;
        # the array-level fits over all rows give the same sets
        data = gen_typed({0: 0.7, 2: 0.3}, n=4_000, seed=3).data
        treated = np.where(data.xs >= 0.0, 0.8, 0.3)  # a fuzzy design: d is not x >= 0
        data = replace(data, d=(np.random.default_rng(9).uniform(size=data.n) < treated).astype(float))
        fit = FitConfig(order=order, kernel=kernel)
        cfg = cli.RunConfig(
            cutoff=0.0, y_low=0.0, y_high=1.0, fit=fit, boot=BootstrapConfig(b=50, seed=4),
            sharp=True, fuzzy=True, col_d="d",
        )
        block = block_of(report_mod.build_report(cfg, data))
        be = estimate_boundary(data, fit)
        assert be.r < 1.0  # so the sharp bound trims
        resolved = fit.resolved(data.xs, 0.0)
        _, w, keep = local_weights(data.xs, 0.0, resolved.mean_spec(Side.RIGHT))
        sharp = sharp_type2_bounds(w[keep], data.ys[keep], be.mu_plus, be.mu_minus, be.r, 0.0, 1.0)
        assert block["sharp_set"] == list(clamp_interval(sharp.lower, sharp.upper, 0.0, 1.0)[:2])
        # the report's fuzzy set is fuzzy_bounds at the plan's d+-
        _, plan = boundary_pass(data, cfg.boot, resolved)
        d_plus, d_minus = sample_means(plan, data.d)
        fuzzy = fuzzy_bounds(be.mu_plus, be.mu_minus, be.r, d_plus, d_minus, 0.0, 1.0)
        assert block["fuzzy_status"] == fuzzy.status.value == "Informative"
        assert block["fuzzy_set"] == [fuzzy.lower, fuzzy.upper]
        # and close to it at local_poly_fit's d+-. Both solve the same normal
        # equations, each within about 4e-15 relative of their exact solution,
        # and the fuzzy ends divide by d+ - d-, which magnifies that a few
        # times: 1.03e-14 at most here, at order 2 with the uniform kernel
        full_sample = [
            float(local_poly_fit(data.xs, data.d, 0.0, resolved.mean_spec(side)).coefficients[0])
            for side in (Side.RIGHT, Side.LEFT)
        ]
        assert [d_plus, d_minus] == pytest.approx(full_sample, rel=1e-14, abs=0.0)
        reference = fuzzy_bounds(be.mu_plus, be.mu_minus, be.r, *full_sample, 0.0, 1.0)
        assert block["fuzzy_set"] == pytest.approx([reference.lower, reference.upper], rel=2e-14, abs=0.0)

    def test_fuzzy_set_at_density_ratio_above_one(self):
        # CI's balance input: no manipulation, and r is about 1.52. The fuzzy
        # set evaluates r above one at one, as the crude and sharp sets do, so
        # on this sharp design (d is x >= 0) it is the identified set
        data = gen_appendix_d(0.0, 0.05, 5_000, 0).data
        cfg = cli.RunConfig(
            cutoff=0.0, y_low=0.0, y_high=1.0, boot=BootstrapConfig(b=50, seed=0),
            sharp=True, fuzzy=True, col_d="d",
        )
        block = block_of(report_mod.build_report(cfg, data))
        assert block["r"] > 1.5
        assert block["fuzzy_status"] == "Refuted"
        assert block["fuzzy_set"][0] <= block["fuzzy_set"][1]
        assert block["fuzzy_set"] == pytest.approx(block["identified_set"], rel=0.0, abs=1e-12)

    def test_bad_alpha_exits_2(self, tmp_path, typed_file):
        path, _ = typed_file
        # above 0.5 the interval would lie inside the identified set; the flag
        # is refused before the input is read, so a missing file exits 2 too
        for alpha in ("1.5", "0.6", "0.9"):
            for source in (path, str(tmp_path / "missing.csv")):
                assert run_cli("analyze", source, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                               "--alpha", alpha) == 2

    def test_alpha_half_interval_contains_set(self, tmp_path, typed_file):
        path, _ = typed_file
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--boot", "50",
                       "--alpha", "0.5", "--out", str(out)) == 0
        block = block_of(json.loads(out.read_text()))
        lo, hi = block["identified_set"]
        for mode in ("fixed_r", "random_r"):
            assert block[f"c_bar_{mode}"] >= 0.0
            assert block[f"ci_{mode}"][0] <= lo and hi <= block[f"ci_{mode}"][1]

    def test_overflowing_bootstrap_se_is_null_with_one_warning(self, tmp_path, capfd):
        sample = tmp_path / "ad.csv"
        assert run_cli("simulate", "appendix-d", "--p", "0.5", "--n", "20000", "--seed", "1",
                       "--out", str(sample)) == 0
        blocks = {}
        for bound in ("8e307", "1e307"):
            out = tmp_path / f"r{bound}.json"
            assert run_cli("analyze", str(sample), "--cutoff", "0", f"--y-min=-{bound}", f"--y-max={bound}",
                           "--boot", "100", "--out", str(out)) == 0
            report = json.loads(out.read_text())
            blocks[bound] = block_of(report), report["warnings"]
        capfd.readouterr()
        block, warnings_ = blocks["8e307"]
        assert warnings_.count("bootstrap_se_not_finite") == 1
        assert block["ci_random_r"] is None and block["c_bar_random_r"] is None
        assert block["se_lower_random_r"] is None and block["se_upper_random_r"] is None
        # the fixed-r ends keep the point's ratio and stay finite
        lo, hi = block["identified_set"]
        assert block["ci_fixed_r"][0] <= lo and hi <= block["ci_fixed_r"][1]
        block, warnings_ = blocks["1e307"]
        assert "bootstrap_se_not_finite" not in warnings_
        assert all(block[f"ci_{mode}"] is not None for mode in ("fixed_r", "random_r"))

    def test_missing_cutoff_exits_2(self, typed_file):
        path, _ = typed_file
        assert run_cli("analyze", path, "--y-min", "0", "--y-max", "1") == 2

    @pytest.mark.parametrize("flags", [
        ("--y-max", "1"),
        ("--y-min", "0"),
        ("--y-min", "0", "--y-max", "1", "--fuzzy"),
        ("--y-min", "0", "--y-max", "1", "--boot", "10"),
        ("--y-min", "0", "--y-max", "1", "--workers", "0"),
        ("--y-min", "1", "--y-max", "0"),
        ("--y-min", "nan", "--y-max", "1"),
        ("--y-min", "0", "--y-max", "inf"),
        ("--y-min=-1e308", "--y-max", "1e308"),
    ])
    def test_bad_flags_exit_2_before_ingest(self, tmp_path, capsys, flags):
        # the input does not exist, so reading it would exit 3
        missing = tmp_path / "missing.csv"
        assert run_cli("analyze", str(missing), "--cutoff", "0", *flags) == 2
        assert capsys.readouterr().err.startswith("configuration error")

    def test_order_above_cap_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cutoff = 0\ny_min = 0\ny_max = 1\norder = 3\n")
        assert run_cli("analyze", str(missing), "--config", str(cfgfile)) == 2
        assert "polynomial order" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            run_cli("analyze", str(missing), "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--order", "3")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ("cutoff = 0\ny_min = 0\ny_max = 1\nsharp\n", "config line 4 is not key = value: 'sharp'"),
        ("[0, 1]", "JSON config must be an object"),
    ], ids=["line-without-equals", "json-list"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / ("run.json" if text.startswith("[") else "run.cfg")
        cfgfile.write_text(text)
        assert run_cli("analyze", str(tmp_path / "missing.csv"), "--config", str(cfgfile)) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("word", ["off", "no", "FALSE", "0"])
    def test_config_file_skips_comments_and_blank_lines(self, tmp_path, word):
        # a bool key read as false gives the config of the key left out
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# a run\n\ncutoff = 0\n   # indented\ny_min = 0\n\ny_max = 1\nsharp = {word}\n")
        parse = cli.build_parser().parse_args
        cfg = cli._resolve(parse(["analyze", "missing.csv", "--config", str(cfgfile)]))
        assert cfg.sharp is False
        assert cfg == cli._resolve(parse(["analyze", "missing.csv", "--cutoff", "0", "--y-min", "0", "--y-max", "1"]))

    @pytest.mark.parametrize("order,kernel", [(2, "epanechnikov"), (0, "uniform")])
    def test_order_and_kernel_reach_every_fit(self, typed_file, tmp_path, order, kernel):
        path, _ = typed_file
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--order", str(order), "--kernel", kernel, "--boot", "64", "--seed", "4",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        block = block_of(report)
        data = ingest(path, cutoff=0.0, y_low=0.0, y_high=1.0)
        fit = FitConfig(order=order, kernel=KernelKind(kernel))
        be = estimate_boundary(data, fit)
        assert be.mu_plus != estimate_boundary(data).mu_plus  # not the default fit
        assert (report["config"]["order"], report["config"]["kernel"], block["order"]) == (order, kernel, order)
        assert block["bandwidths"] == be.bandwidths
        assert block["n_effective"] == be.n_effective
        assert [block[k] for k in ("mu_plus", "mu_minus", "f_plus", "f_minus")] == [
            be.mu_plus, be.mu_minus, be.f_plus, be.f_minus,
        ]
        draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=4), fit)
        density = inference._density_test(draws)
        assert block["discontinuity_t"] == density.statistic

    def test_single_covariate_balance_equals_library_test(self, tmp_path):
        # x drawn in +- pairs: the full-sample density jump is zero by
        # construction, so the density test accepts and the balance test is reported
        ts = gen_typed({0: 1.0}, n=4_000, seed=5)
        half = ts.data.n // 2
        x = np.concatenate([ts.x_star[:half], -ts.x_star[:half]])
        ts = replace(ts, data=replace(ts.data, xs=x), x_star=x)
        path = tmp_path / "clean.csv"
        write_typed_csv(ts, str(path))
        out = tmp_path / "r.json"
        assert run_cli("analyze", str(path), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--covariate", "x_star", "--boot", "64", "--seed", "4", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        data = ingest(str(path), cutoff=0.0, y_low=0.0, y_high=1.0, covariates=("x_star",))
        draws = bootstrap_boundary_replicates(data, BootstrapConfig(b=64, seed=4), covariates=("x_star",))
        balance = inference._balance_test(draws, 0)
        expected = {"covariate": "x_star", **asdict(balance)}
        assert report["protocol"]["balance"] == [json.loads(json.dumps(expected))]

    @pytest.mark.parametrize("covariates", [(), ("--covariate", "x_star")], ids=["outcome", "covariate"])
    def test_one_bootstrap_pass_per_analysis(self, typed_file, tmp_path, monkeypatch, covariates):
        from mrdd import boundary, inference

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        # each plan sorts the rows near the cutoff once; the point estimates
        # are its all-ones replicate, so they need no plan of their own
        monkeypatch.setattr(boundary, "build_plan", counted("plan", boundary.build_plan))
        monkeypatch.setattr(inference, "build_plan", counted("plan", inference.build_plan))
        monkeypatch.setattr(inference, "run_replicates", counted("run", inference.run_replicates))
        path, _ = typed_file
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1", *covariates,
                       "--sharp", "--boot", "64", "--out", str(tmp_path / "r.json")) == 0
        assert calls == ["plan", "run"]

    @pytest.mark.parametrize("target", ["directory", "missing"])
    @pytest.mark.parametrize("command", ["analyze", "plotdata"])
    def test_unopenable_input_exits_3(self, tmp_path, capsys, command, target):
        path = tmp_path if target == "directory" else tmp_path / "missing.csv"
        flags = ("--y-min", "0", "--y-max", "1") if command == "analyze" else ()
        assert run_cli(command, str(path), "--cutoff", "0", *flags, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        reason = "Is a directory" if target == "directory" else "No such file or directory"
        assert err == f"data error: cannot open {path}: {reason}\n"

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_repeated_covariate_exits_2_before_reading(self, tmp_path, capsys, source):
        # the same balance test twice would fit the covariate twice per replicate
        missing = tmp_path / "missing.csv"
        if source == "flags":
            given = ("--covariate", "x_star", "--covariate", "w", "--covariate", "x_star")
        else:
            (tmp_path / "run.cfg").write_text("covariates = x_star,w,x_star\n")
            given = ("--config", str(tmp_path / "run.cfg"))
        assert run_cli("analyze", str(missing), "--cutoff", "0", "--y-min", "0", "--y-max", "1", *given) == 2
        assert capsys.readouterr().err == "configuration error: covariate 'x_star' is named more than once\n"

    @needs_utf8
    def test_byte_order_mark_gives_the_same_report(self, typed_file, tmp_path):
        path, _ = typed_file
        marked = tmp_path / "marked.csv"
        marked.write_bytes(BOM + Path(path).read_bytes())
        outs = []
        for name, source in (("plain.json", path), ("marked.json", str(marked))):
            outs.append(tmp_path / name)
            assert run_cli("analyze", source, "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--boot", "64",
                           "--covariate", "x_star", "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @needs_utf8
    @pytest.mark.parametrize("name, text", [
        ("run.cfg", "cutoff = 0\ny_min = 0\ny_max = 1\nboot = 64\nbw_mean_left = 0.3\n"),
        ("run.json", '{"cutoff": 0, "y_min": 0, "y_max": 1, "boot": 64, "bw_mean_left": 0.3}'),
    ], ids=["key-value", "json"])
    def test_config_file_byte_order_mark_is_skipped(self, typed_file, tmp_path, name, text):
        path, _ = typed_file
        outs = []
        for mark in (b"", BOM):
            cfgfile, outs = tmp_path / name, [*outs, tmp_path / f"r{len(outs)}.json"]
            cfgfile.write_bytes(mark + text.encode())
            assert run_cli("analyze", path, "--config", str(cfgfile), "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unopenable_config_exits_2(self, typed_file, tmp_path, capsys):
        path, _ = typed_file
        assert run_cli("analyze", path, "--config", str(tmp_path), "--cutoff", "0",
                       "--y-min", "0", "--y-max", "1") == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: cannot open config file {tmp_path}: Is a directory\n"

    @pytest.mark.skipif(not undecodable(b"\xff"), reason="the locale encoding decodes every byte")
    @pytest.mark.parametrize("text", [b"x,y\n0.5,1\n\xff0.2,0\n", b"x,y\xff\n0.5,1\n0.2,0\n"],
                             ids=["data-row", "header"])
    @pytest.mark.parametrize("command", ["analyze", "plotdata"])
    def test_undecodable_byte_exits_3(self, tmp_path, capsys, text, command):
        path = tmp_path / "latin.csv"
        path.write_bytes(text)
        flags = ("--y-min", "0", "--y-max", "1") if command == "analyze" else ()
        out = tmp_path / "out"
        assert run_cli(command, str(path), "--cutoff", "0", *flags, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err and "\\xff" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_running_variable_near_float_limit_exits_3(self, tmp_path, capsys):
        # no bandwidth flag: the rule of thumb must not overflow into a flag error
        xs = [sign * k * 1e200 for sign in (-1, 1) for k in range(1, 6)]
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{i % 2}\n" for i, x in enumerate(xs)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("analyze", str(path), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                           "--boot", "50")
        assert code == 3
        assert "distinct in-window points" in capsys.readouterr().err

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

    @pytest.mark.parametrize("column, one_left", [("y", False), ("w", False), ("y", True), ("w", True)],
                             ids=["y", "w", "y-one-left", "w-one-left"])
    def test_column_whose_sums_overflow_exits_3(self, tmp_path, capfd, column, one_left):
        # every value is finite, but a fit's sum over 4,000 of them is not;
        # the mean fit read that as singular normal equations. With one row
        # left of the cutoff the rule of thumb fails there too, and the
        # column error comes first
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(4_000)
        if one_left:
            xs = np.abs(xs)
            xs[0] = -1.0
        huge = np.where(rng.uniform(size=xs.size) < 0.5, -8e307, 8e307)
        ys, ws = (huge, xs) if column == "y" else ((xs > 0).astype(float), huge)
        path = tmp_path / "huge.csv"
        path.write_text("x,y,w\n" + "".join(f"{x!r},{y!r},{w!r}\n" for x, y, w in zip(xs.tolist(), ys.tolist(), ws.tolist())))
        out = tmp_path / "r.json"
        code = run_cli("analyze", str(path), "--cutoff", "0", "--y-min=-8e307", "--y-max=8e307",
                       "--covariate", "w", "--boot", "50", "--out", str(out))
        assert code == 3
        assert capfd.readouterr().err.splitlines() == [
            f"data error: column {column!r} has values up to 8e+307 in magnitude: "
            "their sums over 4000 rows overflow a float"
        ]
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("key", ["bw_mean_left", "bw_mean_right", "bw_dens_left", "bw_dens_right"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_bandwidth_exits_2_before_reading_input(self, tmp_path, capsys, source, key, value):
        given = [f"--{key.replace('_', '-')}={value}"]
        if source == "config":
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            given = ["--config", str(config)]
        assert run_cli("analyze", str(tmp_path / "missing.csv"), "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       *given) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bandwidth ") and "positive and finite" in err

    @pytest.mark.parametrize("assumption, code", [("type2", 4), ("mixed", 4), ("type3", 0)])
    def test_sharp_set_outside_identified_set_exits_4(self, typed_file, tmp_path, monkeypatch, capsys,
                                                      assumption, code):
        # the report checks what its formulas guarantee, and a breach is a bug;
        # the type-2 sharp set need not lie inside another model's set
        path, _ = typed_file
        real_sharp = report_mod.sharp_type2_bounds

        def wider(*args):
            res = real_sharp(*args)
            return replace(res, lower=res.lower - 0.01, upper=res.upper + 0.01)

        monkeypatch.setattr(report_mod, "sharp_type2_bounds", wider)
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--type", assumption,
                       "--sharp", "--boot", "64", "--out", str(tmp_path / "r.json")) == code
        if code == 4:
            err = capsys.readouterr().err
            assert "internal error: RuntimeError(" in err and "does not contain sharp_set" in err

    def test_crossed_fuzzy_set_exits_4(self, typed_file, tmp_path, monkeypatch, capsys):
        # every reported interval is checked for order, the fuzzy set too
        path, _ = typed_file
        real_fuzzy = report_mod.fuzzy_bounds

        def swapped(*args):
            res = real_fuzzy(*args)
            return replace(res, lower=res.upper, upper=res.lower)

        monkeypatch.setattr(report_mod, "fuzzy_bounds", swapped)
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--fuzzy", "--col-d", "d",
                       "--boot", "64", "--out", str(tmp_path / "r.json")) == 4
        err = capsys.readouterr().err
        assert "internal error: RuntimeError(" in err and "fuzzy_set" in err

    def test_internal_error_exits_4(self, typed_file, monkeypatch, capsys):
        # any exception outside the config and data families: a bug
        path, _ = typed_file
        from mrdd import cli as cli_mod

        def boom(cfg, data):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1") == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("\ninternal error: RuntimeError('invariant violated')\n")

    def test_breached_invariant_exits_4_not_2(self, typed_file, tmp_path, monkeypatch, capsys):
        # a p-value outside [0, 1] is a bug, not a flag the user can fix
        path, _ = typed_file
        monkeypatch.setattr(inference, "_two_sided_p", lambda t: 1.5)
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--boot", "64", "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "configuration error" not in err
        assert err.endswith("\ninternal error: ValueError('p-value out of [0, 1]: 1.5')\n")
        assert not out.exists()

    def test_non_finite_statistic_exits_4(self, typed_file, tmp_path, monkeypatch, capsys):
        # the report's field table lets no test statistic be null, so a NaN
        # one is a bug and no report is written
        path, _ = typed_file
        # build_report imports the protocol from inference when it runs
        real_protocol = inference.protocol_from_draws

        def nan_density_statistic(draws, alpha):
            outcome = real_protocol(draws, alpha)
            return replace(outcome, density=replace(outcome.density, statistic=float("nan")))

        monkeypatch.setattr(inference, "protocol_from_draws", nan_density_statistic)
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                       "--boot", "64", "--out", str(out)) == 4
        assert capsys.readouterr().err.endswith("\ninternal error: RuntimeError('discontinuity_t nan is not finite')\n")
        assert not out.exists()

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
        assert block_of(json.loads(out1.read_text()))["order"] == 0
        out2 = tmp_path / "two.json"
        code = run_cli("analyze", path, "--config", str(cfgfile), "--order", "1", "--out", str(out2))
        assert code == 0
        assert block_of(json.loads(out2.read_text()))["order"] == 1

    def test_json_config(self, typed_file, tmp_path):
        path, _ = typed_file
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"cutoff": 0, "y_min": 0, "y_max": 1, "boot": 64}))
        out = tmp_path / "r.json"
        assert run_cli("analyze", path, "--config", str(cfgfile), "--out", str(out)) == 0

    @pytest.mark.parametrize("entry,named", [
        ('"boot": 64.9', "'boot'"), ('"order": 1.5', "'order'"), ('"seed": true', "'seed'"),
        ('"sharp": 2', "'sharp'"), ('"col_x": null', "'col_x'"), ('"covariates": [1]', "'covariates'"),
        ('"seed": ' + "1" * 5000, "bad JSON config"),
    ], ids=lambda value: value[:16])
    def test_json_config_value_of_another_type_exits_2(self, tmp_path, capsys, entry, named):
        # an int key takes a JSON integer, a bool key a JSON bool, a string key a string
        missing = tmp_path / "missing.csv"
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"cutoff": 0, "y_min": 0, "y_max": 1, ' + entry + "}")
        assert run_cli("analyze", str(missing), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err

    # a JSON value for each option that differs from its default; a bool is a
    # bare flag, and the column names a repeated --covariate
    OPTION_VALUES = {
        "cutoff": 0.25, "y_min": -1.0, "y_max": 2.0, "type": "type3", "order": 2, "kernel": "uniform",
        "alpha": 0.1, "boot": 200, "seed": 7, "sharp": True, "fuzzy": True, "covariates": ["w1", "w2"],
        "col_x": "score", "col_y": "outcome", "col_d": "treated", "bw_mean_left": 0.3,
        "bw_mean_right": 0.4, "bw_dens_left": 0.5, "bw_dens_right": 0.6, "workers": 2,
    }

    @pytest.mark.parametrize("key", list(cli._OPTIONS))
    def test_flag_and_config_key_give_one_config(self, tmp_path, key):
        # every run names the required keys and, for --fuzzy, a treatment column
        base = {"cutoff": "0", "y_min": "0", "y_max": "1", "col_d": "d"}

        def resolve(*argv, skip=key):
            flags = [arg for k, v in base.items() if k != skip for arg in (f"--{k.replace('_', '-')}", v)]
            return cli._resolve(cli.build_parser().parse_args(["analyze", "missing.csv", *flags, *argv]))

        value = self.OPTION_VALUES[key]
        if value is True:
            flags, text = [f"--{key}"], "true"
        elif isinstance(value, list):
            flags, text = [arg for name in value for arg in ("--covariate", name)], ",".join(value)
        else:
            flags, text = [f"--{key.replace('_', '-')}", str(value)], str(value)
        (tmp_path / "run.cfg").write_text(f"{key} = {text}\n")
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        from_flag = resolve(*flags)
        assert from_flag == resolve("--config", str(tmp_path / "run.cfg"))
        assert from_flag == resolve("--config", str(tmp_path / "run.json"))
        assert from_flag != resolve(skip=None)

    def test_unknown_config_key_exits_2(self, typed_file, tmp_path):
        path, _ = typed_file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cutof = 0\n")
        assert run_cli("analyze", path, "--config", str(cfgfile)) == 2

    @pytest.mark.parametrize("line,named", [("kernel = gaussian", "'gaussian'"), ("type = type9", "'type9'")])
    def test_bad_config_value_named_in_error(self, tmp_path, capsys, line, named):
        missing = tmp_path / "missing.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"cutoff = 0\ny_min = 0\ny_max = 1\n{line}\n")
        assert run_cli("analyze", str(missing), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err

    @pytest.mark.skipif(not undecodable(b"\xe9"), reason="the locale encoding decodes every byte")
    def test_undecodable_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"cutoff = 0\ny_min = 0\ny_max = 1\n# caf\xe9\n")
        assert run_cli("analyze", str(missing), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(cfgfile) in err

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
        ts = gen_appendix_d(0.3, 0.3, 200_000, 4)
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
        lo, hi = block_of(report)["identified_set"]
        assert lo == pytest.approx(row.crude_lower, abs=0.03)
        assert hi == pytest.approx(row.crude_upper, abs=0.03)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS runs one thread whatever it is asked for")
    def test_report_does_not_depend_on_blas_thread_count(self, tmp_path):
        # The thread count must be set before numpy loads, so each analyze
        # runs in its own interpreter. The sample is large enough that
        # threaded BLAS kernels would split the bootstrap's moment sums and
        # the sharp bound's weighted mean, and so move their last bits.
        sample = tmp_path / "s.csv"
        assert run_cli("simulate", "appendix-d", "--n", "200000", "--seed", "0", "--out", str(sample)) == 0
        src = str(Path(mrdd.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.json"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            proc = subprocess.run(
                [sys.executable, "-m", "mrdd.cli", "analyze", str(sample), "--cutoff", "0", "--y-min", "0",
                 "--y-max", "1", "--boot", "50", "--sharp", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def unscaled_report():
    return scaled_report(0)


def scaled_report(k):
    """analyze --boot 200 --sharp on an appendix-d sample with x and the cutoff times 2^k."""
    data = gen_appendix_d(0.1, 0.05, 50_000, 1).data
    cfg = cli.RunConfig(cutoff=data.cutoff * 2.0**k, y_low=0.0, y_high=1.0, sharp=True,
                        boot=BootstrapConfig(b=200, seed=0))
    return json.loads(report_mod.json_text(report_mod.build_report(cfg, replace(data, xs=data.xs * 2.0**k, cutoff=cfg.cutoff))))


@pytest.mark.parametrize("k", [
    -30, -20, -10, 10,
    pytest.param(20, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="DENSITY_FLOOR is in units of 1/x: both densities floor, and the verdict turns PointIdentified")),
])
def test_report_does_not_depend_on_the_units_of_x(unscaled_report, k):
    # a power of two scales x exactly: the bandwidths scale by 2^k and the
    # densities by 2^-k, and every other field keeps its bits
    report, base = scaled_report(k), json.loads(json.dumps(unscaled_report))
    block, base_block = block_of(report), block_of(base)
    scale = 2.0**k
    assert block.pop("bandwidths") == {key: h * scale for key, h in base_block.pop("bandwidths").items()}
    for key in ("f_plus", "f_minus"):
        assert block.pop(key) == base_block.pop(key) / scale
    assert report == base


def test_a_side_with_no_spread_gives_the_same_output_at_every_floor(tmp_path, capfd, monkeypatch):
    # every left x is -0.5: the left rule of thumb is 0 and its bandwidth is
    # the floor, whose windows reach no row at every floor below 0.25, so
    # analyze fails the left density fit and plotdata fits no left bin
    rng = np.random.default_rng(0)
    xs = np.concatenate([np.full(50, -0.5), rng.uniform(0.0, 1.0, 400)])
    ys = (rng.uniform(size=xs.size) < 0.5).astype(float)
    path = tmp_path / "flat_left.csv"
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
    csvs = set()
    for floor in (1e-12, 1e-8, 1e-4):
        monkeypatch.setattr(mrdd.localfit, "MIN_BANDWIDTH", floor)
        assert 0 < rot_bandwidth(xs, Side.LEFT, 0.0) <= floor
        code = run_cli("analyze", str(path), "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--boot", "50")
        assert code == 3
        assert capfd.readouterr().err == (
            "data error: left density fit: 0 distinct in-window points on side 'left', "
            "need at least 3 for a degree-2 CDF fit\n"
        )
        out = tmp_path / "bins.csv"
        assert run_cli("plotdata", str(path), "--cutoff", "0", "--out", str(out)) == 0
        assert capfd.readouterr().err == (
            "warning: 0 of 300 bins clipped to 1e-06 (their fitted density was not positive); "
            "100 have no fitted density (nan: their window is too poor for the fit)\n"
        )
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [row[4] for row in rows if row[3] == "left"] == ["nan"] * 100
        csvs.add(out.read_bytes())
    assert len(csvs) == 1


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
        data = ingest(str(out), 0.0, col_d="d", covariates=("x_star", "manipulated", "t_type"))
        assert data.n == 1000
        assert np.all(data.xs >= data.covariates["x_star"])

    def test_typed_shares(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli("simulate", "typed", "--share", "0=0.5", "--share", "2=0.5",
                       "--n", "2000", "--seed", "1", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "type shares" in printed and "manipulation fraction" in printed

    @pytest.mark.parametrize("share", ["0.5", "x=0.5", "0=half"])
    def test_unparsable_share_exits_2(self, tmp_path, capsys, share):
        out = tmp_path / "t.csv"
        assert run_cli("simulate", "typed", "--share", share, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"configuration error: cannot parse --share {share!r}; expected T=WEIGHT\n"
        assert not out.exists()

    @pytest.mark.parametrize("shares", [("0=0.5", "0=0.5"), ("2=0.3", "0=0.4", "00=0.3")])
    def test_repeated_share_label_exits_2(self, tmp_path, capsys, shares):
        # a later share would replace the earlier one, and the shares would not sum to 1
        out = tmp_path / "t.csv"
        flags = [arg for share in shares for arg in ("--share", share)]
        assert run_cli("simulate", "typed", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == "configuration error: type 0 is named more than once in --share\n"
        assert not out.exists()

    def test_unknown_dgp_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "nope", "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2


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

    def test_subnormal_density_ratio_gives_finite_sharp_set(self, capsys):
        # f(c-)/f(c+) is subnormal here; the crude lower end l1/r overflows
        # a float and is reported as null, the sharp ends stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("oracle", "--p", "0.5", "--lambda", "1.7e308") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["crude"][0] is None
        assert all(v is not None and np.isfinite(v) for v in payload["sharp"])

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

    def test_clipping_reported_in_one_line(self, typed_file, tmp_path, capfd):
        path, _ = typed_file
        out = tmp_path / "bins.csv"
        code = run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.05", "--out", str(out))
        assert code == 0
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        densities = [row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]]
        clipped, unfit = densities.count(repr(DENSITY_FLOOR)), densities.count("nan")
        assert clipped > 0 and unfit > 0
        assert err[0].startswith(f"warning: {clipped} of {len(densities)} bins clipped to ")
        assert f"; {unfit} have no fitted density (nan: " in err[0]

    def test_csv_matches_per_bin_reference(self, typed_file, tmp_path):
        path, _ = typed_file
        out = tmp_path / "bins.csv"
        assert run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.05",
                       "--out", str(out)) == 0
        xs = ingest(path, cutoff=0.0).xs
        c, w = 0.0, 0.05
        edges = c + w * np.arange(int(np.floor((xs.min() - c) / w)), int(np.ceil((xs.max() - c) / w)) + 1)
        counts, _ = np.histogram(xs, bins=edges)
        h = {side: rot_bandwidth(xs, side, c) for side in (Side.LEFT, Side.RIGHT)}
        lines = ["bin_left,bin_right,count,side,fitted_density"]
        for left_edge, right_edge, count in zip(edges[:-1], edges[1:], counts):
            center = 0.5 * (left_edge + right_edge)
            side = Side.LEFT if right_edge <= c else Side.RIGHT
            one_sided = center + h[side] > c if side is Side.LEFT else center - h[side] < c
            spec = FitSpec(1, h[side], KernelKind.TRIANGULAR, side if one_sided else Side.INTERIOR)
            try:
                dens = boundary_density(xs, center, spec)[0]
            except DataError:
                dens = float("nan")
            lines.append(f"{float(left_edge)!r},{float(right_edge)!r},{int(count)},{side.value},{float(dens)!r}")
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_bins_share_their_fit_specs(self, typed_file, tmp_path, monkeypatch):
        # one spec per (side of the cutoff, interior or not), not one per bin
        made = []

        class CountedFitSpec(FitSpec):
            def __post_init__(self):
                made.append(self)
                super().__post_init__()

        monkeypatch.setattr(mrdd.boundary, "FitSpec", CountedFitSpec)
        path, _ = typed_file
        assert run_cli("plotdata", path, "--cutoff", "0", "--bin-width", "0.05",
                       "--out", str(tmp_path / "bins.csv")) == 0
        assert {spec.side for spec in made} == {Side.LEFT, Side.RIGHT, Side.INTERIOR}
        assert len(made) == 4

    @pytest.mark.parametrize("width", ["0", "nan", "-0.1", "inf", "1e-9", "over-cap"])
    def test_bad_bin_width_exits_2_before_edges(self, typed_file, tmp_path, capsys, monkeypatch, width):
        path, _ = typed_file
        if width == "over-cap":
            xs = ingest(path, cutoff=0.0).xs
            width = repr(float(xs.max() - xs.min()) / MAX_PLOT_BINS * (1 - 1e-6))

        def no_edges(*args, **kwargs):
            raise AssertionError("bin edges allocated")

        monkeypatch.setattr(np, "arange", no_edges)
        out = tmp_path / "bins.csv"
        assert run_cli("plotdata", path, "--cutoff", "0", "--bin-width", width,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("configuration error")
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_non_finite_cutoff_exits_2_in_one_line(self, typed_file, tmp_path, capfd, cutoff):
        path, _ = typed_file
        out = tmp_path / "bins.csv"
        assert run_cli("plotdata", path, "--cutoff", cutoff, "--out", str(out)) == 2
        assert capfd.readouterr().err == "configuration error: cutoff must be finite\n"
        assert not out.exists()

    def test_bin_count_overflow_exits_2_in_one_line(self, tmp_path, capfd):
        # the bin indices overflow a float; no numpy warning precedes the error
        path = tmp_path / "huge.csv"
        path.write_text("x\n-1e300\n-5e299\n5e299\n1e300\n")
        out = tmp_path / "bins.csv"
        assert run_cli("plotdata", str(path), "--cutoff", "0", "--bin-width", "1e-10",
                       "--out", str(out)) == 2
        err = capfd.readouterr().err
        assert err.startswith("configuration error") and f"more than {MAX_PLOT_BINS} bins" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("xs, cutoff, end", [
        ([-2.9850000000000003, -1.0, -0.5, 0.5, 1.0, 1.5], "0", 0),
        ([-3.0, -2.5, -1.0, 0.5, 1.0, 41.32000000000001], "-2.3", -1),
    ], ids=["least-x", "greatest-x"])
    def test_bins_cover_the_end_rows(self, tmp_path, xs, cutoff, end):
        # at the default width, c + w floor((min - c) / w) rounds above the
        # least x, or c + w ceil((max - c) / w) below the greatest
        path, out = tmp_path / "x.csv", tmp_path / "bins.csv"
        path.write_text("x\n" + "".join(f"{x!r}\n" for x in xs))
        assert run_cli("plotdata", str(path), "--cutoff", cutoff, "--out", str(out)) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert sum(int(row[2]) for row in rows) == len(xs)
        assert float(rows[0][0]) <= xs[0] and xs[-1] <= float(rows[-1][1])
        left, right, count, *_ = rows[end]
        assert float(left) <= xs[end] <= float(right) and count == "1"

    @pytest.mark.parametrize("xs, cutoff, bins", [
        ([-0.035, -0.02, -0.01, 0.01, 0.02, 0.035], "0", 14),
        ([-3.0, -2.5, -1.0, 0.5, 1.0, 41.32000000000001], "-2.3", 8865),
    ], ids=["both-ends", "least-x"])
    def test_fewest_bins_cover_the_rows(self, tmp_path, xs, cutoff, bins):
        # fl(-0.035 / 0.005) = -7.000000000000001, which floor took to -8 and
        # an empty first bin; the end bins hold the least and greatest x
        path, out = tmp_path / "x.csv", tmp_path / "bins.csv"
        path.write_text("x\n" + "".join(f"{x!r}\n" for x in xs))
        assert run_cli("plotdata", str(path), "--cutoff", cutoff, "--out", str(out)) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == bins
        assert float(rows[0][0]) <= xs[0] and xs[-1] <= float(rows[-1][1])
        assert int(rows[0][2]) > 0 and int(rows[-1][2]) > 0

    def test_end_bins_hold_rows_on_rounded_decimals(self, tmp_path):
        # x rounded to 3 decimals, as vote margins are, over cutoffs and widths
        # that put rows on the edges
        rng = np.random.default_rng(11)
        path, out = tmp_path / "x.csv", tmp_path / "bins.csv"
        for trial in range(40):
            xs = np.round(rng.uniform(-0.5, 0.5, 30), 3)
            cutoff, width = rng.choice(["0", "0.1", "-0.3"]), rng.choice(["0.005", "0.01", "0.015"])
            path.write_text("x\n" + "".join(f"{x!r}\n" for x in xs.tolist()))
            assert run_cli("plotdata", str(path), "--cutoff", cutoff, "--bin-width", width, "--out", str(out)) == 0
            counts = [int(row.split(",")[2]) for row in out.read_text().splitlines()[1:]]
            assert counts[0] > 0 and counts[-1] > 0 and sum(counts) == xs.size, (trial, cutoff, width)

    def test_bins_of_no_width_exit_2(self, tmp_path, capfd):
        # 5e-5 over 1e-10 wide bins is 500,000 bins, under the cap, but floats
        # near 1e6 are 1.16e-10 apart, so some edges repeat
        path, out = tmp_path / "x.csv", tmp_path / "bins.csv"
        path.write_text("x\n" + "".join(f"{x!r}\n" for x in np.linspace(1e6, 1e6 + 5e-5, 11).tolist()))
        assert run_cli("plotdata", str(path), "--cutoff", "1000000.00002", "--bin-width", "1e-10",
                       "--out", str(out)) == 2
        err = capfd.readouterr().err
        assert err.startswith("configuration error") and "bins of no width" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_x_column_alone_is_enough(self, typed_file, tmp_path):
        path, ts = typed_file
        x_only = tmp_path / "x.csv"
        x_only.write_text("x\n" + "".join(f"{x!r}\n" for x in ts.data.xs.tolist()))
        outs = []
        for name, source in (("full.csv", path), ("x_only.csv", str(x_only))):
            outs.append(tmp_path / name)
            assert run_cli("plotdata", source, "--cutoff", "0", "--bin-width", "0.1",
                           "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_col_y_flag_is_gone(self, typed_file, tmp_path):
        path, _ = typed_file
        with pytest.raises(SystemExit) as excinfo:
            run_cli("plotdata", path, "--cutoff", "0", "--col-y", "y", "--out", str(tmp_path / "o.csv"))
        assert excinfo.value.code == 2

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


@pytest.mark.parametrize("command", ["analyze", "simulate", "oracle", "plotdata"])
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_exits_2(typed_file, tmp_path, capsys, monkeypatch, command, target):
    path, _ = typed_file
    # analyze opens --out before the pipeline, so build_report never runs
    monkeypatch.setattr(cli, "build_report", mock.Mock(side_effect=AssertionError("build_report ran")))
    (tmp_path / "taken").mkdir()
    out = str(tmp_path / "taken") if target == "directory" else str(tmp_path / "nodir" / "out.txt")
    argv = {
        "analyze": ["analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1", "--boot", "50"],
        "simulate": ["simulate", "appendix-d", "--n", "100"],
        "oracle": ["oracle", "--p", "0.1", "--lambda", "0.3"],
        "plotdata": ["plotdata", path, "--cutoff", "0"],
    }[command]
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp"))


def usually(value, others):
    """A strategy that draws ``value`` about half the time and one of ``others`` otherwise,
    so that some runs get as far as a result."""
    return st.just(value) | st.sampled_from(others)


@st.composite
def adversarial_samples(draw):
    """CSV text of a small sample with ties, heavy tails, extreme scales,
    one-sided support or a bad cell, and its number of data rows."""
    n = draw(usually(300, [0, 1, 4, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(usually("normal", ["ties", "right-only", "cauchy", "tiny", "huge"]))
    xs = {
        "normal": lambda: rng.normal(size=n),
        "ties": lambda: np.round(rng.normal(size=n), 1),
        "right-only": lambda: np.abs(rng.normal(size=n)),
        "cauchy": lambda: rng.standard_cauchy(size=n),
        "tiny": lambda: 1e-9 * rng.normal(size=n),
        "huge": lambda: 1e200 * rng.normal(size=n),
    }[shape]()
    ys = {
        "binary": lambda: (rng.uniform(size=n) < 0.5).astype(float),
        "uniform": lambda: rng.uniform(size=n),
        "constant": lambda: np.ones(n),
    }[draw(st.sampled_from(["binary", "uniform", "constant"]))]()
    d = (xs >= 0).astype(float)
    c = rng.normal(size=n)
    rows = [[repr(v) for v in row] for row in zip(xs.tolist(), ys.tolist(), d.tolist(), c.tolist())]
    if rows and draw(st.integers(0, 3)) == 0:
        cell = draw(st.sampled_from(["nan", "inf", "", "1_5", "0.5", "foo", '"2"']))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 3))] = cell
    return "x,y,d,c\n" + "".join(",".join(row) + "\n" for row in rows), n


CUTOFFS = ["0.5", "-1", "1e-12", "1e300", "-1e300", "nan", "inf"]


EXTREMES = ["nan", "inf", "-inf", "0", "1e-320", "1e300"]


def parameter(*ordinary):
    """An ordinary value about half the time and an extreme one otherwise."""
    return st.sampled_from(ordinary) | st.sampled_from(EXTREMES)


@st.composite
def simulate_argvs(draw):
    """``simulate`` arguments for one DGP, now and then with another DGP's flag,
    and the number of rows asked for."""
    n = draw(st.integers(1, 300))
    dgp = draw(st.sampled_from(["appendix-d", "counterexample-e", "typed"]))
    if dgp == "appendix-d":
        own = [f"--p={draw(parameter('0', '0.1', '1'))}", f"--lambda={draw(parameter('0.05', '3'))}"]
    elif dgp == "counterexample-e":
        own = [f"--noise-sd={draw(parameter('0.3'))}"]
    else:
        share = st.tuples(st.sampled_from(["0", "1", "2", "3", "4", "9"]), parameter("0.5", "1"))
        shares = draw(st.just([("0", "0.5"), ("2", "0.5")]) | st.lists(share, min_size=1, max_size=3))
        own = [f"--share={label}={weight}" for label, weight in shares]
        own.append(f"--attempt-prob={draw(parameter('0.5', '1'))}")
    foreign = {"appendix-d": ["--noise-sd=0.1", "--share=0=1"],
               "counterexample-e": ["--p=0.1", "--lambda=0.05", "--attempt-prob=0.5"],
               "typed": ["--p=0.1", "--noise-sd=0.1"]}[dgp]
    extra = draw(st.just([]) | st.lists(st.sampled_from(foreign), max_size=1))
    seed = draw(usually(0, [-1, -(2**40), 1, 2**32 + 7]))
    return ["simulate", dgp, "--n", str(n), f"--seed={seed}", *own, *extra], n


@st.composite
def analysis_samples(draw):
    """CSV text of 1 to 2,000 rows around the cutoff 0, with ties, support
    on one side, mass at the cutoff or a constant x, y, d or covariate."""
    n = draw(st.sampled_from([300, 2_000]) | st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n)
    xs = {
        "normal": lambda: z,
        "ties": lambda: np.round(z, 1),
        "right-only": lambda: np.abs(z),
        "left-only": lambda: -np.abs(z) - 1e-3,
        "cutoff-mass": lambda: np.where(rng.uniform(size=n) < 0.3, 0.0, z),
        "constant": lambda: np.zeros(n),
    }[draw(st.sampled_from(["normal", "ties", "right-only", "left-only", "cutoff-mass", "constant"]))]()
    ys = {
        "binary": lambda: (rng.uniform(size=n) < 0.4 + 0.2 * (xs >= 0)).astype(float),
        "uniform": lambda: rng.uniform(size=n),
        "constant": lambda: np.ones(n),
    }[draw(st.sampled_from(["binary", "uniform", "constant"]))]()
    d = {
        "sharp": lambda: (xs >= 0).astype(float),
        "fuzzy": lambda: (rng.uniform(size=n) < 0.3 + 0.5 * (xs >= 0)).astype(float),
        "constant": lambda: np.ones(n),
    }[draw(st.sampled_from(["sharp", "fuzzy", "constant"]))]()
    c, w = rng.normal(size=n) + xs, np.full(n, 2.5)
    rows = zip(*(column.tolist() for column in (xs, ys, d, c, w)))
    return "x,y,d,c,w\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@st.composite
def near_tied_x(draw):
    """CSV text of an x column of 1 to 2,000 rows whose values come one ulp
    apart: rows moved one ulp from another row, ladders a few ulps long at
    a few points, all rows within a few ulps of one point, or ulp steps of
    the subnormals at the cutoff 0."""
    n = draw(st.sampled_from([300, 2_000]) | st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n)
    steps = rng.integers(-3, 4, n)
    shape = draw(st.sampled_from(["pairs", "ladders", "cluster", "at-cutoff"]))
    if shape == "pairs":
        moved = rng.uniform(size=n) < draw(st.sampled_from([0.05, 0.5, 1.0]))
        z[moved] = np.nextafter(z[rng.integers(0, n, moved.sum())], np.where(steps[moved] < 0, -np.inf, np.inf))
        xs = z
    elif shape == "ladders":
        k = draw(st.integers(1, 8))
        points = rng.normal(size=k)[rng.integers(0, k, n)]
        xs = points + steps * np.spacing(points)
    elif shape == "cluster":
        xs = 0.3 + steps * np.spacing(0.3)
    else:
        xs = np.where(rng.uniform(size=n) < 0.5, steps * 5e-324, z)
    return "x\n" + "".join(f"{x!r}\n" for x in xs.tolist())


def exit_code(argv):
    """``main``'s exit code, with an argparse usage error as its exit status."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestContract:
    """Adversarial inputs and flags through ``main``: exit 0, 2 or 3, and a
    success always comes with a valid output."""

    # overflow is handled in the code, never left to a raw numpy warning,
    # which pyproject.toml's filterwarnings turns into a failure
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        sample=adversarial_samples(),
        cutoff=usually("0", CUTOFFS),
        y_range=usually(("0", "1"), [("-1e308", "1e308"), ("0.25", "0.75"), ("1", "0")]),
        extra=st.just([]) | st.lists(st.sampled_from([
            ("--order", "0"), ("--order", "2"), ("--kernel", "uniform"), ("--kernel", "epanechnikov"),
            ("--type", "type4"), ("--alpha", "0.999"), ("--alpha", "1e-12"), ("--alpha", "nan"),
            ("--bw-mean-left", "1e-12"), ("--bw-mean-right", "1e300"), ("--bw-dens-left=-1",),
            ("--bw-dens-right", "nan"), ("--bw-mean-left", "inf"), ("--seed=-1",), ("--boot", "49"),
            ("--sharp",), ("--fuzzy", "--col-d", "d"), ("--col-d", "d"), ("--covariate", "c"),
            ("--covariate", "nope"),
        ]), max_size=2),
    )
    def test_analyze_exits_0_2_or_3(self, sample, cutoff, y_range, extra):
        text, _ = sample
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "s.csv"), os.path.join(tmp, "r.json")
            Path(path).write_text(text)
            flags = [flag for pair in extra for flag in pair]
            code = main(["analyze", path, f"--cutoff={cutoff}", f"--y-min={y_range[0]}", f"--y-max={y_range[1]}",
                         "--boot", "50", *flags, "--out", out])
            event(f"exit {code}")
            assert code in (0, 2, 3)
            if code == 0:
                report = strict_json(Path(out).read_text())
                assert block_of(report)["order"] in (0, 1, 2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        text=analysis_samples(),
        flags=st.lists(st.sampled_from([
            ("--order", "0"), ("--order", "2"), ("--kernel", "uniform"), ("--kernel", "epanechnikov"),
            ("--type", "type3"), ("--type", "type4"), ("--type", "mixed"), ("--sharp",),
            ("--fuzzy", "--col-d", "d"), ("--covariate", "c"), ("--covariate", "w"),
            ("--bw-mean-left", "0.3"), ("--bw-mean-right", "2"), ("--bw-dens-left", "0.05"),
            ("--bw-dens-right", "1"),
        ]), max_size=5),
    )
    def test_analyze_report_or_one_labelled_line(self, text, flags):
        # a report that passes the block's own checks, or one labelled error
        # line; never an internal error (4) and never a traceback
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "s.csv"), os.path.join(tmp, "r.json")
            Path(path).write_text(text)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = exit_code(["analyze", path, "--cutoff", "0", "--y-min", "0", "--y-max", "1",
                                  "--boot", "50", *(flag for pair in flags for flag in pair), "--out", out])
            event(f"exit {code}")
            assert "Traceback" not in err.getvalue()
            assert code in (0, 2, 3), err.getvalue()
            if code == 0:
                report = strict_json(Path(out).read_text())
                assert_block_matches_table(block_of(report))
                # a null end is one the report could not write, and is not compared
                block = {key: [np.nan if end is None else end for end in value] if isinstance(value, list) else value
                         for key, value in block_of(report).items()}
                report_mod._check_sets(block, TypeAssumption(report["config"]["assumption"]), 0.0, 1.0)
            else:
                label = "configuration error: " if code == 2 else "data error: "
                assert err.getvalue().startswith(label) and err.getvalue().count("\n") == 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=near_tied_x(), cutoff=st.sampled_from(["0", "0.3"]),
           width=st.sampled_from([[], ["--bin-width", "0.05"], ["--bin-width", "1e-3"]]))
    def test_plotdata_csv_or_one_labelled_line(self, text, cutoff, width):
        # near-tied x, whose fits the relative rank test finds singular: a CSV
        # of finite or nan densities and at most one warning line, or one
        # labelled error line; never an internal error (4) and never a traceback
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "s.csv"), os.path.join(tmp, "bins.csv")
            Path(path).write_text(text)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = exit_code(["plotdata", path, "--cutoff", cutoff, *width, "--out", out])
            event(f"exit {code}")
            lines = err.getvalue().splitlines()
            assert "Traceback" not in err.getvalue()
            assert code in (0, 2, 3), err.getvalue()
            if code == 0:
                rows = [row.split(",") for row in Path(out).read_text().splitlines()[1:]]
                densities = np.array([float(row[4]) for row in rows])
                assert not np.isinf(densities).any()
                assert sum(int(row[2]) for row in rows) == text.count("\n") - 1
                assert len(lines) <= 1 and all(line.startswith("warning: ") for line in lines)
            else:
                label = "configuration error: " if code == 2 else "data error: "
                assert len(lines) == 1 and lines[0].startswith(label)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        sample=adversarial_samples(),
        cutoff=usually("0", CUTOFFS),
        width=usually("0.05", ["0.5", "1e-300", "1e300", "-1", "nan", "inf"]),
    )
    def test_plotdata_exits_0_2_or_3(self, sample, cutoff, width):
        text, n = sample
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "s.csv"), os.path.join(tmp, "bins.csv")
            Path(path).write_text(text)
            code = main(["plotdata", path, f"--cutoff={cutoff}", f"--bin-width={width}", "--out", out])
            event(f"exit {code}")
            assert code in (0, 2, 3)
            if code == 0:
                rows = Path(out).read_text().splitlines()[1:]
                assert sum(int(row.split(",")[2]) for row in rows) == n

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=simulate_argvs())
    def test_simulate_exits_0_or_2(self, case):
        argv, n = case
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "s.csv")
            with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
                code = exit_code([*argv, "--out", out])
            event(f"exit {code}")
            assert code in (0, 2)
            if code == 0:
                data = ingest(out, 0.0, col_d="d", covariates=("x_star", "manipulated", "t_type"))
                assert data.n == n
            assert os.listdir(tmp) == (["s.csv"] if code == 0 else [])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=parameter("0", "0.1", "0.5", "0.99", "1"), lam=parameter("0.05", "0.3", "3"))
    def test_oracle_exits_0_or_2(self, p, lam):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "o.json")
            with mock.patch("sys.stderr"):
                code = exit_code(["oracle", f"--p={p}", f"--lambda={lam}", "--out", out])
            event(f"exit {code}")
            assert code in (0, 2)
            if code == 0:
                payload = strict_json(Path(out).read_text())
                assert payload["p"] == float(p) and payload["lambda"] == float(lam)
