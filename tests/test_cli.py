"""End-to-end tests of the command-line interface: formats, exit codes, manifests."""

import argparse
import ast
import errno
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
from scipy import stats

import dandelion_risk
from dandelion_risk import (GridSpec, ModelConfig, calibrate, loss_pmf, rho_bounds,
                            sample, scan_rho)
from dandelion_risk import _text, cli
from dandelion_risk.cli import build_parser, main
from dandelion_risk.oracle import BLOCK_ROWS

from conftest import LENGTH_BOUND, oracle_sample, traced_peak

# More rows than two CSV blocks, ending part-way through the third.
MULTI_BLOCK_ROWS = 2 * BLOCK_ROWS + 5


def assert_json_document(out, data):
    """`out` is exactly json.dumps of `data` with the manifest it embeds."""
    expected = json.dumps({"manifest": json.loads(out)["manifest"], "data": data},
                          sort_keys=True) + "\n"
    # Split so that a failure names the first differing item instead of
    # diffing one multi-megabyte line.
    assert out.split(", ") == expected.split(", ")


def flush_term(n, power):
    """`loss_moments`' bound on how far flushing the masses below DBL_MIN to
    0.0 moves the mean (power 1) or the variance (power 2): n**power * d /
    total, with d = (n+1)*2.3e-308 and total >= 3/4."""
    return n**power * (n + 1) * 2.3e-308 / 0.75


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

    def test_unwritable_sidecar_exits_3(self, tmp_path, capsys):
        sidecar = tmp_path / "out.csv.manifest.json"
        sidecar.mkdir()
        code, _, err = run(capsys, "pmf", "--p", "0.4", "--rho", "0.26", "--n", "10",
                           "--output", str(tmp_path / "out.csv"))
        assert code == 3
        assert "cannot write" in err and str(sidecar) in err
        # The rows were written before the sidecar failed; they are removed.
        assert sorted(os.listdir(tmp_path)) == ["out.csv.manifest.json"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys):
        def header_then_full(names, blocks, extras):
            yield (",".join(names) + "\n").encode()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        target = tmp_path / "target.csv"
        target.write_text("kept\n")
        (tmp_path / "link.csv").symlink_to(target)
        with mock.patch.object(cli, "_csv_chunks", header_then_full):
            for name in ("out.csv", "link.csv"):
                code, _, err = run(capsys, "pmf", "--p", "0.4", "--rho", "0.26",
                                   "--n", "10", "--output", str(tmp_path / name))
                assert code == 3
                assert "No space left on device" in err
        # The regular file is removed; a symlink is never removed.
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]
        assert (tmp_path / "link.csv").is_symlink()

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path):
        # `sample` computes its rows while its file is open, so any error
        # there, not only a failed write, removes what was written.
        def header_then_interrupt(names, blocks, extras):
            yield (",".join(names) + "\n").encode()
            raise KeyboardInterrupt

        with mock.patch.object(cli, "_csv_chunks", header_then_interrupt), \
                pytest.raises(KeyboardInterrupt):
            main(["pmf", "--p", "0.4", "--rho", "0.26", "--n", "10",
                  "--output", str(tmp_path / "out.csv")])
        assert os.listdir(tmp_path) == []

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

    def test_exponent_form_negative_rho_joined_to_its_flag(self, capsys):
        # repr writes small negatives as -1e-05, which argparse only takes
        # joined to the flag.
        runs = [run(capsys, "metrics", "--p", "0.4", *rho, "--n", "100")
                for rho in (["--rho=-1e-05"], ["--rho", "-0.00001"])]
        assert [code for code, _, _ in runs] == [0, 0]
        joined, spaced = (json.loads(out) for _, out, _ in runs)
        assert joined["data"] == spaced["data"]
        assert joined["manifest"]["parameters"] == spaced["manifest"]["parameters"]

    def test_subnormal_p(self, capsys):
        # 1/p overflows here, so no closed form may divide by p.  Every mass
        # past l = 0 is below the smallest normal double and reads 0.0, so the
        # report is that of a point mass at 0; the closed-form moments lie
        # within the flush's terms of `loss_moments` of it.
        argv = ["--p", "1e-310", "--rho", "0.5", "--n", "10"]
        code, out, _ = run(capsys, "metrics", *argv)
        assert code == 0
        data = json.loads(out)["data"]
        assert data == {"mean": 0.0, "mode": 0, "mode_prob": 1.0, "peaks": [0],
                        "var_level": 0.99, "var_value": 0, "variance": 0.0}
        assert abs(data["mean"] - 10 * 1e-310) <= flush_term(10, 1)
        assert abs(data["variance"] - 10 * 1e-310 * (1 + 9 * 0.25)) <= flush_term(10, 2)
        code, out, _ = run(capsys, "calibrate", *argv)
        assert code == 0
        assert "inf" not in out

    @pytest.mark.parametrize("p", [1e-12, 0.99999999999, 1e-200, 1e-310])
    def test_independent_model_at_extreme_p(self, capsys, p):
        # rho = 0 lies 1e-12 or 1e-11 above the lower bound here, inside the
        # margin once taken as an absolute 1e-10.  At p = 1e-200 and below,
        # q = p**2 underflows to 0.0, which no computation reads.
        code, out, _ = run(capsys, "metrics", "--p", repr(p), "--rho", "0", "--n", "10")
        assert code == 0
        assert json.loads(out)["data"]["mean"] == pytest.approx(
            10 * p, rel=1e-12, abs=flush_term(10, 1))

    @pytest.mark.parametrize("command", [["metrics"], ["sample", "--count", "10"]],
                             ids=["metrics", "sample"])
    def test_vanished_rate_exits_2(self, capsys, command):
        # rho = 0.5 is inside the margins, but r0 = p*(1-rho) rounds to 0.0;
        # ModelConfig refuses it, so a command that never takes a log does too.
        code, _, err = run(capsys, *command, "--p", "5e-324", "--rho", "0.5", "--n", "10")
        assert code == 2
        assert "vanished" in err

    def test_invalid_level_exits_2(self, capsys):
        code, _, _ = run(capsys, "metrics", "--p", "0.4", "--rho", "0", "--n", "100",
                         "--level", "1.5")
        assert code == 2

    def test_invalid_level_exits_2_before_the_pmf(self, monkeypatch, capsys):
        def refused(cfg):
            raise AssertionError("loss_pmf ran for a refused level")

        monkeypatch.setattr(cli, "loss_pmf", refused)
        code, out, err = run(capsys, "metrics", "--p", "0.4", "--rho", "0.1",
                             "--n", "10000000", "--level", "1")
        assert (code, out) == (2, "")
        assert err == "error: confidence level=1.0 must be in (0, 1)\n"

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

    def test_margin_inside_the_eps_band_exits_2(self, capsys):
        code, out, err = run(capsys, "scan", "--p", "0.4", "--n", "10", "--points", "3",
                             "--margin", "5e-11")
        assert (code, out) == (2, "")
        assert err.startswith("error: margin=5e-11 ")

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
        draws = oracle_sample(ModelConfig(n_credits=100, p=0.4, rho=-0.26), count, 3)
        expected = ["draw_index,l0,loss"] + [
            f"{i},{l0},{loss}" for i, (l0, loss) in enumerate(draws.tolist())
        ]
        assert out == "\n".join(expected) + "\n"

    def test_json_rows_across_blocks(self, capsys):
        count = MULTI_BLOCK_ROWS
        code, out, _ = run(capsys, "sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
                           "--count", str(count), "--seed", "3", "--format", "json")
        assert code == 0
        draws = oracle_sample(ModelConfig(n_credits=100, p=0.4, rho=-0.26), count, 3)
        data = {"draw_index": list(range(count)), "l0": draws[:, 0].tolist(),
                "loss": draws[:, 1].tolist()}
        assert_json_document(out, data)

    def test_zero_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "sample", "--p", "0.4", "--rho", "0.1", "--n", "10",
                         "--count", "0")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("flag", ["--seed=-1", "--count=0", f"--n={2**63}",
                                      f"--count={LENGTH_BOUND + 1}"],
                             ids=["seed", "count", "n", "count_past_bound"])
    def test_refused_input_writes_no_file(self, tmp_path, capsys, flag, fmt):
        # The rows are drawn as they are written, so every check on the input
        # runs before the output file is opened.
        code, _, err = run(capsys, "sample", "--p", "0.4", "--rho", "0.1", "--n", "10",
                           "--count", "5", flag, "--format", fmt,
                           "-o", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

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


# Every subcommand's flags but --n.
SIZE_ARGS = {"calibrate": ["--rho", "0.1"], "metrics": ["--rho", "0.1"],
             "pmf": ["--rho", "0.1"], "scan": [],
             "sample": ["--rho", "0.1", "--count", "1"]}
PAST_BOUND = {"bound+1": LENGTH_BOUND + 1, "2**63": 2**63, "10**400": 10**400}
# (command, argv after --p, exit code, text of the one error line); no size lies
# in (10**6, 10**18), where numpy would try to allocate.  At N = LENGTH_BOUND
# calibrate and sample need no array of N + 1 entries; pmf, metrics and scan
# ask for one, which numpy refuses at once, as too big to size or as an 8 EiB
# allocation, so no memory is used.  Past the bound --n, --points and --count
# are each refused by name: `linspace` would return an empty grid for a
# --points that rounds to 2**63, and `binomial` takes no n past int64.
SIZE_CASES = {
    **{f"{command}-n={name}": (command, ["--n", str(n), *args], 2,
                               f"n_credits={n} must be an integer in [2, {LENGTH_BOUND}]")
       for command, args in SIZE_ARGS.items() for name, n in PAST_BOUND.items()},
    **{f"{command}-n=bound": (command, ["--n", str(LENGTH_BOUND), *args],
                              0 if command in ("calibrate", "sample") else 2, None)
       for command, args in SIZE_ARGS.items()},
    **{f"scan-points={name}": ("scan", ["--n", "10", "--points", str(count)], 2,
                               f"grid count={count} must be an integer in [3, {LENGTH_BOUND}]")
       for name, count in PAST_BOUND.items()},
    **{f"sample-count={name}": ("sample", ["--n", "10", "--rho", "0.1", "--count", str(count)],
                                2, f"count={count} must be an integer in [1, {LENGTH_BOUND}]")
       for name, count in PAST_BOUND.items()},
}


@pytest.mark.parametrize("command, argv, code, message", list(SIZE_CASES.values()),
                         ids=list(SIZE_CASES))
def test_sizes_at_and_past_the_length_bound(capsys, command, argv, code, message):
    got, out, err = run(capsys, command, "--p", "0.4", *argv)
    assert "Traceback" not in err
    assert got == code
    if code == 0:
        if command == "sample":
            header, row = out.splitlines()[:2]
            assert header == "draw_index,l0,loss"
            assert 0 <= int(row.split(",")[2]) <= LENGTH_BOUND
        return
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if message is None:
        assert "array is too big" in err or "Unable to allocate 8.00 EiB" in err
    else:
        assert err == f"error: {message}\n"


# Counts on both sides of one and two block edges, and one of many blocks.
SPLIT_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                MULTI_BLOCK_ROWS, 300001]


@pytest.mark.parametrize("n, p, rho", [(100, 0.4, -0.26), (7, 0.02, 0.5),
                                       (10**9, 0.47, 0.31), (LENGTH_BOUND, 0.4, 0.1)])
def test_sample_stream_split_is_the_one_call_form(tmp_path, capsys, n, p, rho):
    # `sample` and the CLI draw l0 and the losses from two generators, a
    # block at a time; the losses' generator starts `count` words into the
    # seed's stream, where the one-call form's `binomial` starts.  That rests
    # on `Generator.random` taking one PCG64 word a double, which a numpy
    # upgrade could change.
    cfg = ModelConfig(n_credits=n, p=p, rho=rho)
    argv = ["sample", "--p", repr(p), f"--rho={rho!r}", "--n", str(n)]
    for count in SPLIT_COUNTS:
        seed = count % 1000
        draws = oracle_sample(cfg, count, seed)
        got = sample(cfg, count, seed)
        assert got.dtype == np.int64 and np.array_equal(got, draws), count
        for fmt in ("csv", "json"):
            path = tmp_path / f"draws.{fmt}"
            assert main([*argv, "--count", str(count), "--seed", str(seed),
                         "--format", fmt, "-o", str(path)]) == 0
            written = path.read_text()
            if fmt == "csv":
                assert written == "draw_index,l0,loss\n" + "".join(
                    f"{i},{l0},{loss}\n" for i, (l0, loss) in enumerate(draws.tolist()))
            else:
                assert_json_document(written, {
                    "draw_index": list(range(count)), "l0": draws[:, 0].tolist(),
                    "loss": draws[:, 1].tolist()})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pmf_export_memory_budget(tmp_path, fmt):
    # `pmf` hands the writer slices of its mass columns and a per-block `l`,
    # so writing the N = 10**6 table peaks at 5.0 MB traced as CSV and 4.6 MB
    # as JSON; a whole `l` column would add 8 MB.
    args = build_parser().parse_args(["pmf", "--p", "0.5", "--rho", "0.3",
                                      "--n", str(10**6), "--format", fmt])
    table = args.func(args)
    _text._csv_block([np.array([0.5])], b"\n")  # builds the tables
    assert traced_peak(cli._emit, *table, "{}", fmt, str(tmp_path / "out")) <= 7.0e6


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_export_memory_budget(tmp_path, fmt):
    # Drawn whole, 10**6 draws held 32.1 MB traced: the (count, 2) draws, the
    # uniforms, the rates and an index column.  Drawn and written a block at
    # a time, the export peaks at 1.0 MB as CSV and 0.7 MB as JSON.
    argv = ["sample", "--p", "0.4", "--rho", "-0.26", "--n", "100", "--seed", "5",
            "--format", fmt, "-o", str(tmp_path / "draws")]

    def export(count):
        assert main([*argv, "--count", str(count)]) == 0

    export(1000)  # builds the float kernel's tables and numpy's caches
    assert traced_peak(export, 10**6) <= 3.0e6


def test_sample_draws_only_what_each_pass_asks_for(tmp_path):
    # JSON asks for one column per pass.  A pass that drew every column would
    # draw the binomials three times, which doubled the export's time.
    count = 10**6
    draws = []

    class CountingGenerator(np.random.Generator):
        def random(self, size=None, **kwargs):
            draws.append(("random", size))
            return super().random(size, **kwargs)

        def binomial(self, n, p, size=None):
            draws.append(("binomial", len(p)))
            return super().binomial(n, p, size)

    sizes = [min(BLOCK_ROWS, count - start) for start in range(0, count, BLOCK_ROWS)]
    uniforms = [("random", size) for size in sizes]
    both = [draw for size in sizes for draw in (("random", size), ("binomial", size))]
    expected = {"csv": {("draw_index", "l0", "loss"): both},
                "json": {("draw_index",): [], ("l0",): uniforms, ("loss",): both}}
    for fmt, passes in expected.items():
        args = build_parser().parse_args([
            "sample", "--p", "0.4", "--rho", "-0.26", "--n", "100",
            "--count", str(count), "--format", fmt])
        names, blocks, extras = args.func(args)
        seen = {}

        def spied(asked):
            draws.clear()
            yield from blocks(asked)
            seen[asked] = list(draws)

        with mock.patch.object(np.random, "Generator", CountingGenerator):
            cli._emit(names, spied, extras, "{}", fmt, str(tmp_path / "draws"))
        assert seen == passes, fmt


def test_import_leaves_the_text_writer_unloaded():
    # The block size lives in `oracle`, so `import dandelion_risk` leaves the
    # writer to the CLI; loading it and its `json` took 4-7 ms more.
    env = dict(os.environ)
    src = str(Path(dandelion_risk.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, dandelion_risk; print('dandelion_risk._text' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    pytest.param(["pmf", "--rho", "-0.26", "--n", str(MULTI_BLOCK_ROWS - 1)], id="pmf"),
    pytest.param(["sample", "--rho", "-0.26", "--n", "100", "--count",
                  str(MULTI_BLOCK_ROWS), "--seed", "3"], id="sample"),
    pytest.param(["scan", "--n", "100", "--points", "21"], id="scan"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_file_get_the_same_bytes(tmp_path, capsys, argv, fmt):
    # One formatter, two sinks: stdout takes the file's bytes decoded.
    path = tmp_path / "out"
    argv = [*argv, "--p", "0.4", "--format", fmt]
    assert main([*argv, "--output", str(path)]) == 0
    assert main(argv) == 0
    printed, written = capsys.readouterr().out.encode(), path.read_bytes()
    if fmt == "json":
        # The embedded manifests differ in their timestamps alone.
        printed, written = (re.sub(rb'"timestamp": "[^"]*"', b"", text)
                            for text in (printed, written))
    assert printed == written


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


def spawn_cli(argv, stdout, stderr):
    """Run `python -m dandelion_risk` in a child process on the given streams.

    PYTHONUNBUFFERED is dropped, so the child's streams are buffered and the
    interpreter flushes them again at exit, as in a shell pipeline.
    """
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    src = str(Path(dandelion_risk.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dandelion_risk", *argv],
                          stdout=stdout, stderr=stderr, env=env, timeout=300)


MODEL_FLAGS = ["--p", "0.4", "--rho", "-0.26"]


# Each case names the streams whose pipe has no reader; "both" is one pipe
# for stdout and stderr, as in `2>&1 | head`.  N = 300000 rows are far past a
# pipe's buffer, so the writes themselves fail; the small outputs fail when
# they are flushed.
@pytest.mark.parametrize("closed, argv, exit_code", [
    ("stdout", ["pmf", "--n", "300000", *MODEL_FLAGS], 3),
    ("stdout", ["pmf", "--n", "100", "--format", "json", *MODEL_FLAGS], 3),
    ("stdout", ["metrics", "--n", "100", *MODEL_FLAGS], 3),
    ("stdout", ["calibrate", "--n", "100", *MODEL_FLAGS], 3),
    ("stderr", ["pmf", "--n", "300000", *MODEL_FLAGS], 3),
    ("both", ["pmf", "--n", "300000", *MODEL_FLAGS], 3),
    ("both", ["sample", "--n", "100", "--count", "300000", *MODEL_FLAGS], 3),
    ("stderr", ["pmf", "--n", "10", "--p", "0.4", "--rho", "5"], 2),
], ids=["stdout-pmf-csv", "stdout-pmf-json", "stdout-metrics", "stdout-calibrate",
        "stderr-pmf-csv", "both-pmf-csv", "both-sample-csv", "stderr-domain-error"])
def test_closed_pipe_exits_with_the_error_code(tmp_path, capsys, closed, argv,
                                               exit_code):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = spawn_cli(argv,
                           subprocess.PIPE if closed == "stderr" else write_end,
                           subprocess.PIPE if closed == "stdout" else write_end)
    finally:
        os.close(write_end)
    assert result.returncode == exit_code
    if closed == "stdout":
        # One error line at most: no traceback, no "Exception ignored".
        assert re.fullmatch(r"(error: [^\n]*\n)?", result.stderr.decode())
    if closed == "stderr" and exit_code == 3:
        # Only the manifest was lost: the rows arrive whole.
        path = tmp_path / "rows.csv"
        assert main([*argv, "--output", str(path)]) == 0
        capsys.readouterr()
        assert result.stdout == path.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_3():
    with open("/dev/full", "wb") as full:
        result = spawn_cli(["metrics", "--n", "100", *MODEL_FLAGS], full,
                           subprocess.PIPE)
    assert result.returncode == 3
    assert result.stderr.decode() == ("error: cannot write output: [Errno 28] "
                                      "No space left on device\n")


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
dr.calibrate(cfg)
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
