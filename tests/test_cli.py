"""End-to-end tests of the command-line interface: formats, exit codes, manifests."""

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dandelion_risk
from dandelion_risk import (GridSpec, ModelConfig, calibrate, loss_pmf, rho_bounds,
                            sample, scan_rho)
from dandelion_risk import cli
from dandelion_risk.cli import CSV_BLOCK_ROWS, build_parser, main

# More rows than two CSV blocks, ending part-way through the third.
MULTI_BLOCK_ROWS = 2 * CSV_BLOCK_ROWS + 5


def assert_json_document(out, data):
    """`out` is exactly json.dumps of `data` with the manifest it embeds."""
    expected = json.dumps({"manifest": json.loads(out)["manifest"], "data": data},
                          sort_keys=True) + "\n"
    # Split so that a failure names the first differing item instead of
    # diffing one multi-megabyte line.
    assert out.split(", ") == expected.split(", ")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrateCommand:
    def test_reports_parameters(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.4", "--rho", "0.26", "--n", "100")
        assert code == 0
        values = dict(
            re.match(r"(\w+)\s*=\s*(.+)", line).groups()
            for line in out.strip().splitlines()
            if "=" in line and "interval" not in line
        )
        cfg = ModelConfig(n_credits=100, p=0.4, rho=0.26)
        params = calibrate(cfg)
        bounds = rho_bounds(0.4)
        assert values == {
            "alpha": repr(params.alpha),
            "alpha0": repr(params.alpha0),
            "beta": repr(params.beta),
            "log_z": repr(params.log_z),
            "q": repr(cfg.q),
        }
        assert out.splitlines()[-1] == (
            f"rho_interval = ({bounds.lower!r}, {bounds.upper!r})")

    def test_zero_rho_reports_zero_beta(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.4", "--rho", "0", "--n", "100")
        assert code == 0
        beta = float(re.search(r"beta\s*=\s*(\S+)", out).group(1))
        assert abs(beta) < 1e-12

    def test_inadmissible_rho_exits_2_and_names_interval(self, capsys):
        code, _, err = run(capsys, "calibrate", "--p", "0.4", "--rho", "-0.7", "--n", "100")
        assert code == 2
        assert "-0.666666666666" in err
        assert "1" in err


class TestPmfCommand:
    def test_csv_payload(self, capsys):
        code, out, err = run(capsys, "pmf", "--p", "0.4", "--rho", "0.26", "--n", "100",
                             "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,mass,log_mass"
        assert len(lines) == 102
        mass = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert abs(mass.sum() - 1.0) < 1e-12
        manifest = json.loads(err)
        assert manifest["command"] == "pmf"
        assert manifest["tool_version"]

    def test_csv_is_locale_independent(self, capsys):
        _, out, _ = run(capsys, "pmf", "--p", "0.4", "--rho", "-0.26", "--n", "20",
                        "--format", "csv")
        body = out.split("\n", 1)[1]
        # digits, '.', ',', exponent markers, signs, and newlines only
        assert not re.search(r"[^0-9eE+\-.,\n]", body)
        assert "\r" not in out

    def test_binomial_column_at_zero_rho(self, capsys):
        _, out, _ = run(capsys, "pmf", "--p", "0.4", "--rho", "0", "--n", "50",
                        "--format", "csv")
        mass = np.array([float(l.split(",")[1]) for l in out.splitlines()[1:]])
        assert np.abs(mass - stats.binom.pmf(np.arange(51), 50, 0.4)).max() < 1e-12

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code = main(["pmf", "--p", "0.4", "--rho", "0.26", "--n", "100",
                         "--format", "csv", "--output", str(path)])
            assert code == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_json_embeds_manifest(self, capsys):
        code, out, err = run(capsys, "pmf", "--p", "0.4", "--rho", "0.26", "--n", "10",
                             "--format", "json")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert set(doc) == {"manifest", "data"}
        assert len(doc["data"]["mass"]) == 11
        assert doc["manifest"]["parameters"]["rho"] == 0.26

    def test_unwritable_output_exits_3(self, capsys):
        code, _, err = run(capsys, "pmf", "--p", "0.4", "--rho", "0.26", "--n", "10",
                           "--output", "/nonexistent-dir-xyz/out.csv")
        assert code == 3
        assert "cannot write" in err

    def test_csv_rows_across_blocks(self, capsys):
        n = MULTI_BLOCK_ROWS - 1
        code, out, _ = run(capsys, "pmf", "--p", "0.4", "--rho", "-0.26", "--n", str(n))
        assert code == 0
        pmf = loss_pmf(ModelConfig(n_credits=n, p=0.4, rho=-0.26))
        expected = ["l,mass,log_mass"] + [
            f"{l},{m!r},{lm!r}" for l, (m, lm) in
            enumerate(zip(pmf.mass.tolist(), pmf.log_mass.tolist()))
        ]
        assert out == "\n".join(expected) + "\n"

    def test_json_rows_across_blocks(self, capsys):
        n = MULTI_BLOCK_ROWS - 1
        code, out, _ = run(capsys, "pmf", "--p", "0.4", "--rho", "-0.26", "--n", str(n),
                           "--format", "json")
        assert code == 0
        pmf = loss_pmf(ModelConfig(n_credits=n, p=0.4, rho=-0.26))
        data = {"l": list(range(n + 1)), "mass": pmf.mass.tolist(),
                "log_mass": pmf.log_mass.tolist()}
        assert_json_document(out, data)

    def test_domain_error_writes_no_file(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "pmf", "--p", "0.4", "--rho", "-0.7", "--n", "100",
                           "--output", str(path))
        assert code == 2
        assert "lower bound" in err
        assert not path.exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DANDELION_RISK_OUTDIR", str(tmp_path))
        code = main(["pmf", "--p", "0.4", "--rho", "0", "--n", "5",
                     "--format", "csv", "--output", "rel.csv"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "rel.csv").exists()
        assert (tmp_path / "rel.csv.manifest.json").exists()


class TestMetricsCommand:
    def test_binomial_mode(self, capsys):
        code, out, _ = run(capsys, "metrics", "--p", "0.4", "--rho", "0", "--n", "100")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["mode"] == 40
        assert data["var_level"] == 0.99

    def test_median_level(self, capsys):
        _, out, _ = run(capsys, "metrics", "--p", "0.4", "--rho", "0", "--n", "100",
                        "--level", "0.5")
        data = json.loads(out)["data"]
        assert data["var_value"] == int(stats.binom.ppf(0.5, 100, 0.4)) == 40

    def test_invalid_level_exits_2(self, capsys):
        code, _, _ = run(capsys, "metrics", "--p", "0.4", "--rho", "0", "--n", "100",
                         "--level", "1.5")
        assert code == 2

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # What `metrics --n 100000000000` raises; simulated, so nothing is allocated.
        message = ("Unable to allocate 745. GiB for an array with shape "
                   "(100000000001,) and data type float64")

        def exhausted(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "loss_pmf", exhausted)
        code, out, err = run(capsys, "metrics", "--p", "0.4", "--rho", "0",
                             "--n", "100000000000")
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestScanCommand:
    def test_csv_with_rho_star_footer(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "0.4", "--n", "100",
                           "--points", "201", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,var,mode,mode_prob,mean,variance"
        assert len(lines) == 204  # header + 201 rows + 2 footer comments
        result = scan_rho(0.4, 100, grid_spec=GridSpec(count=201, margin=1e-3),
                          level=0.99, jump_threshold=10)
        assert lines[1:-2] == [
            f"{rho!r},{rep.var_value!r},{rep.mode!r},{rep.mode_prob!r},"
            f"{rep.mean!r},{rep.variance!r}"
            for rho, rep in zip(result.rho_grid.tolist(), result.reports)
        ]
        assert lines[1].startswith("-0.")
        star = float(lines[-2].split("=")[1])
        assert star == pytest.approx(-0.461745, abs=1e-5)
        assert int(lines[-1].split("=")[1]) == 46

    def test_negative_jump_threshold_exits_2(self, capsys):
        code, out, err = run(capsys, "scan", "--p", "0.1", "--n", "10", "--points", "5",
                             "--jump-threshold", "-1")
        assert (code, out, err) == (2, "", "error: jump_threshold=-1 must be >= 0\n")

    def test_json_fields(self, capsys):
        _, out, _ = run(capsys, "scan", "--p", "0.4", "--n", "50",
                        "--points", "11", "--format", "json")
        data = json.loads(out)["data"]
        assert len(data["rho"]) == 11
        assert set(data) == {"rho", "var", "mode", "mode_prob", "mean",
                             "variance", "rho_star", "jump_size"}

    def test_rerun_identical(self, tmp_path, capsys):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            assert main(["scan", "--p", "0.4", "--n", "100", "--points", "51",
                         "--format", "csv", "--output", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_jump_leaves_rho_star_empty(self, capsys):
        argv = ["scan", "--p", "0.4", "--n", "100", "--jump-threshold", "1000"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[-2:] == ["# rho_star = ", "# jump_size = 0"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert '"rho_star": null' in out
        assert json.loads(out)["data"]["jump_size"] == 0

    def test_too_coarse_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "scan", "--p", "0.4", "--n", "100", "--points", "2")
        assert code == 2


class TestSampleCommand:
    def test_seeded_reruns_identical(self, tmp_path, capsys):
        paths = [tmp_path / "d1.csv", tmp_path / "d2.csv"]
        for path in paths:
            assert main(["sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                         "--count", "5000", "--seed", "9", "--format", "csv",
                         "--output", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_manifest_records_seed_and_generator(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        assert main(["sample", "--p", "0.4", "--rho", "0.1", "--n", "10",
                     "--count", "10", "--seed", "77", "--format", "csv",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
        assert manifest["seed"] == 77
        assert "PCG64" in manifest["parameters"]["generator"]
        header = path.read_text().splitlines()[0]
        assert header == "draw_index,l0,loss"

    def test_csv_rows_across_blocks(self, capsys):
        count = MULTI_BLOCK_ROWS
        code, out, _ = run(capsys, "sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                           "--count", str(count), "--seed", "3")
        assert code == 0
        draws = sample(ModelConfig(n_credits=100, p=0.4, rho=-0.26), count, 3)
        expected = ["draw_index,l0,loss"] + [
            f"{i},{l0},{loss}" for i, (l0, loss) in enumerate(draws.tolist())
        ]
        assert out == "\n".join(expected) + "\n"

    def test_json_rows_across_blocks(self, capsys):
        count = MULTI_BLOCK_ROWS
        code, out, _ = run(capsys, "sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                           "--count", str(count), "--seed", "3", "--format", "json")
        assert code == 0
        draws = sample(ModelConfig(n_credits=100, p=0.4, rho=-0.26), count, 3)
        data = {"draw_index": list(range(count)), "l0": draws[:, 0].tolist(),
                "loss": draws[:, 1].tolist()}
        assert_json_document(out, data)

    def test_zero_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "sample", "--p", "0.4", "--rho", "0.1", "--n", "10",
                         "--count", "0")
        assert code == 2

    def test_total_variation_against_pmf_command(self, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        pmf_file = tmp_path / "pmf.csv"
        assert main(["sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                     "--count", "1000000", "--seed", "42", "--format", "csv",
                     "--output", str(draws)]) == 0
        assert main(["pmf", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                     "--format", "csv", "--output", str(pmf_file)]) == 0
        capsys.readouterr()
        loss = np.loadtxt(draws, delimiter=",", skiprows=1, usecols=2, dtype=np.int64)
        empirical = np.bincount(loss, minlength=101) / 1e6
        mass = np.loadtxt(pmf_file, delimiter=",", skiprows=1, usecols=1)
        assert 0.5 * np.abs(empirical - mass).sum() < 0.005


INT64 = np.iinfo(np.int64)
# Signed zeros, the smallest subnormal, both sides of the switches to
# exponent notation at 1e-05 and 1e+16, non-finite values, and reprs of the
# longest length, 24 characters.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1e-05, 9.999999999999999e-06, -1e-05,
               1e+16, 9999999999999998.0, -1e+16, float("inf"), float("-inf"),
               float("nan"), -1.2345678901234567e-300, 0.1, -1.0]
EDGE_INTS = [INT64.min, INT64.min + 1, -10, -9, -1, 0, 1, 9, 10, INT64.max]
CELLS = {
    "int": st.one_of(st.sampled_from(EDGE_INTS), st.integers(INT64.min, INT64.max)),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)),
}


@st.composite
def csv_tables(draw):
    """Columns of int64 or float64 arrays or Python lists (as `scan` passes)."""
    n_rows = draw(st.integers(0, 10), label="n_rows")
    columns = {}
    for i, (kind, as_list) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(sorted(CELLS)), st.booleans()),
            min_size=1, max_size=4))):
        values = draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        columns[f"{kind}{i}"] = values if as_list else np.array(
            values, np.int64 if kind == "int" else np.float64)
    extras = draw(st.dictionaries(st.sampled_from(["rho_star", "jump_size"]),
                                  st.one_of(st.none(), st.integers(), st.floats())))
    return columns, extras


@settings(max_examples=300, deadline=None)
@given(table=csv_tables(), block_rows=st.integers(1, 4))
def test_csv_chunks_are_the_per_cell_repr(table, block_rows):
    columns, extras = table
    cells = [list(map(repr, np.asarray(col).tolist())) for col in columns.values()]
    expected = "".join(
        [",".join(columns) + "\n"]
        + [",".join(row) + "\n" for row in zip(*cells)]
        + [f"# {key} = {'' if value is None else value}\n"
           for key, value in extras.items()])
    # Small blocks put the row count on either side of a block boundary.
    with mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        assert "".join(cli._csv_chunks(columns, extras)) == expected


def test_csv_chunks_refuse_other_dtypes():
    with pytest.raises(TypeError, match="bool"):
        list(cli._csv_chunks({"flag": np.array([True, False])}, {}))


@pytest.mark.parametrize("argv, keys", [
    pytest.param(["pmf", "--rho", "0.26"], {"p", "rho", "n", "format"}, id="pmf"),
    pytest.param(["metrics", "--rho", "0.26"], {"p", "rho", "n", "level", "format"},
                 id="metrics"),
    pytest.param(["scan", "--points", "5"],
                 {"p", "n", "points", "margin", "level", "jump_threshold", "format"},
                 id="scan"),
    pytest.param(["sample", "--rho", "0.26", "--count", "5", "--seed", "1"],
                 {"p", "rho", "n", "count", "generator", "format"}, id="sample"),
])
def test_manifest_parameters_are_the_subcommand_flags(tmp_path, capsys, argv, keys):
    path = tmp_path / "out.json"
    assert main([*argv, "--p", "0.4", "--n", "10", "--format", "json",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    parameters = json.loads(path.read_text())["manifest"]["parameters"]
    assert set(parameters) == keys
    # The parser's flags, less the two that are not parameters.
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {action.dest for action in sub.choices[argv[0]]._actions
             if action.option_strings and action.dest != "help"}
    assert keys - {"generator"} == flags - {"output", "seed"}


def test_console_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "calibrate" in out and "scan" in out


def scipy_references(source: str) -> list[str]:
    """Imports, attribute chains and strings in `source` that name scipy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


@pytest.mark.parametrize("source", [
    "import scipy.stats", "import scipy.stats as st", "from scipy import stats",
    "from scipy import special, stats", "from scipy.stats import norm",
    "import scipy\nscipy.stats.norm.cdf(0)", "importlib.import_module('scipy.stats')",
    "from scipy.special import gammaln",
])
def test_scipy_stats_scan_finds_every_spelling(source):
    assert scipy_references(source)
    # Prose that mentions scipy imports nothing.
    assert not scipy_references('"""Checked against the scipy expansion."""')


def test_import_leaves_scipy_stats_unloaded():
    # The runtime needs numpy only: no module names scipy, and with scipy
    # made unimportable every public path and every subcommand still runs.
    package = Path(dandelion_risk.__file__).resolve().parent
    found = {path.name: scipy_references(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert not any(found.values()), found
    src = str(package.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = """
import contextlib
import io
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import dandelion_risk as dr
from dandelion_risk.cli import main
cfg = dr.ModelConfig(6, 0.4, -0.26)
params = dr.calibrate(cfg)
dr.joint_log_prob(params, 1, [0, 1, 0, 1, 0, 1])
dr.marginal_noncentral_log_prob(params, [0, 1, 0, 1, 0, 1])
dr.rho_noncentral(cfg)
dr.risk_report(dr.loss_pmf(cfg))
dr.scan_rho(0.4, 6, dr.GridSpec(count=3))
dr.sample(cfg, 10, seed=1)
dr.enumerate_model(cfg)
dr.maxent_fit_small(0.4, cfg.q, 6)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["calibrate", "--rho", "-0.26"], ["pmf", "--rho", "-0.26"],
                 ["metrics", "--rho", "-0.26"], ["scan", "--points", "5"],
                 ["sample", "--rho", "-0.26", "--count", "5"]):
        assert main([*argv, "--p", "0.4", "--n", "6"]) == 0, argv
print(sorted(name for name, module in sys.modules.items()
             if name.partition(".")[0] == "scipy" and module is not None))
"""
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_star_import_binds_the_imported_names():
    # The names listed by every `from .x import (...)` in __init__.py.
    init = Path(dandelion_risk.__file__)
    imported = [alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    namespace = {}
    exec("from dandelion_risk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(imported)
    assert dandelion_risk.__all__ == imported


def test_reproduce_figures_script(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.run(tmp_path) == 0
    names = ["fig1_pmf_pos.csv", "fig1_pmf_neg.csv", "fig2to4_scan.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        names + [name + ".manifest.json" for name in names]
    )
    footer = dict(
        line.removeprefix("scan ").split(" = ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("scan ")
    )
    assert float(footer["rho_star"]) == pytest.approx(-0.461745, abs=1e-6)
    assert int(footer["jump_size"]) == 46
