"""End-to-end tests of the command-line interface: formats, exit codes, manifests."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dandelion_risk import ModelConfig, loss_pmf, sample
from dandelion_risk.cli import CSV_BLOCK_ROWS, main

# More rows than two CSV blocks, ending part-way through the third.
MULTI_BLOCK_ROWS = 2 * CSV_BLOCK_ROWS + 5


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
        assert float(values["q"]) == pytest.approx(0.2224, abs=1e-15)
        assert float(values["alpha"]) == pytest.approx(-0.8664189018339821, abs=1e-12)

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


class TestScanCommand:
    def test_csv_with_rho_star_footer(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "0.4", "--n", "100",
                           "--points", "201", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,var,mode,mode_prob,mean,variance"
        assert len(lines) == 204  # header + 201 rows + 2 footer comments
        star = float(lines[-2].split("=")[1])
        assert star == pytest.approx(-0.461745, abs=1e-5)
        assert int(lines[-1].split("=")[1]) == 46

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


def test_console_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "calibrate" in out and "scan" in out


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
