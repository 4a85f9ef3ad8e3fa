"""The benchmark's four workloads: inputs from a seed, one operation, its check.

A workload yields *rounds*, lists of operations; a run stops only between
rounds, so every run holds whole rounds (a sample and a pmf write together in
``bulk_csv``, a distinct block and its repeat in ``point_queries``).  Each
operation has a key: the first time a key runs, its output is checked against
the independent reference in ``reference.py``; every later run of the same key
must give a byte-identical data payload and a manifest that matches once
``timestamp`` is removed (the determinism contract).

This module imports only the standard library at load time, so that a
workload's set-up time measures the package, not the harness.  numpy, scipy
and the reference are imported on first check, after the warm-up operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Levels of the point queries: ordinary ones and extreme ones whose VaR
# needs the far right tail.
LEVELS = (0.9, 0.95, 0.99, 0.995, 0.999, 0.9999,
          1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15)


@dataclass
class Op:
    key: str
    spec: dict
    items: int  # work items the op completes: processes, scan points, queries or rows


@dataclass
class Outcome:
    """What one run of an operation produced."""

    value: object = None
    payload: bytes = b""
    manifest: dict | None = None
    bytes_out: int = 0
    rss_kb: int = 0
    trace: dict | None = None
    files: list = field(default_factory=list)


def _lower_bound(p: float) -> float:
    return max(-p / (1.0 - p), -(1.0 - p) / p)


def strip_timestamp(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k != "timestamp"}


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def _file_digest(path: str) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def _read_sidecar(path: str) -> dict:
    with open(path + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_manifest(manifest: dict | None, command: str) -> list[str]:
    if not isinstance(manifest, dict) or "timestamp" not in manifest:
        return ["manifest missing or without timestamp"]
    if manifest.get("command") != command:
        return [f"manifest command {manifest.get('command')!r}, expected {command!r}"]
    return []


def _load_table(path: str, dtype):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=2)


def _header(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


class Workload:
    name = ""
    in_process = True  # calls the package inside the worker process
    rescaled = True  # report times in reference seconds (see calibration.py)
    # Latency is per operation, or per round when a round is the unit of work.
    per_round = False

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    def rounds(self):
        raise NotImplementedError

    def warm_up(self, first_round: list[Op]) -> Op:
        """A small first operation: it ends set-up and warms the call path."""
        return first_round[0]

    def run(self, op: Op, index: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> list[str]:
        raise NotImplementedError


# --- cli_cold -----------------------------------------------------------------


class CliCold(Workload):
    """Fresh ``python -m dandelion_risk`` processes running the figure set at N=100."""

    name = "cli_cold"
    in_process = False
    # Process start-up is mostly file reads, dynamic loading and page faults,
    # which the calibration kernel does not track: over ten runs, rescaled CLI
    # times spread 1.5-3x more than wall times, so this workload reports wall
    # seconds.
    rescaled = False
    N = 100

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        p = self.rng.uniform(0.3, 0.7)  # keeps rho = -0.26 admissible
        lo = _lower_bound(p)
        rho = self.rng.uniform(lo + 0.01, 0.99)
        self.p, self.rho = p, rho
        common = ["--p", repr(p), "--n", str(self.N)]
        self.commands = [
            ("pmf_pos", ["pmf", *common, "--rho", "0.26", "--format", "csv"], "csv"),
            ("pmf_neg", ["pmf", *common, "--rho", "-0.26", "--format", "csv"], "csv"),
            ("scan", ["scan", *common, "--format", "csv"], "csv"),
            ("metrics", ["metrics", *common, "--rho", repr(rho)], "stdout"),
            ("calibrate", ["calibrate", *common, "--rho", repr(rho)], "stdout"),
        ]
        self.env = dict(os.environ)
        self.env.pop("DANDELION_RISK_OUTDIR", None)

    def rounds(self):
        while True:
            yield [Op(key=k, spec={"argv": argv, "kind": kind}, items=1)
                   for k, argv, kind in self.commands]

    def run(self, op, index, tracer=None):
        argv = list(op.spec["argv"])
        target = None
        if op.spec["kind"] == "csv":
            target = f"op{index}_{op.key}.csv"
            argv += ["--output", target]
        stdout_path = os.path.join(self.workdir, f"op{index}.out")
        trace_path = os.path.join(self.workdir, f"op{index}.trace.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "dandelion_risk", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
                   trace_path, *argv]
        with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = Outcome(rss_kb=usage.ru_maxrss, files=[stdout_path])
        if proc.returncode != 0:
            raise RuntimeError(f"{op.key}: exit code {proc.returncode}")
        if tracer is not None:
            with open(trace_path, encoding="utf-8") as fh:
                result.trace = json.load(fh)
            result.trace["startup_s"] = result.trace.pop("script_start") - spawned
            result.files.append(trace_path)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        result.bytes_out = len(stdout)
        if target is None:
            result.value = stdout
            if op.key == "metrics":
                doc = json.loads(stdout)
                result.manifest = doc["manifest"]
                result.payload = json.dumps(doc["data"], sort_keys=True).encode()
            else:
                result.payload = stdout
        else:
            path = os.path.join(self.workdir, target)
            result.value = path
            result.payload = _file_digest(path)
            result.manifest = _read_sidecar(path)
            result.bytes_out += (os.path.getsize(path)
                                 + os.path.getsize(path + ".manifest.json"))
            result.files += [path, path + ".manifest.json"]
        return result

    def check(self, op, out):
        import numpy as np

        import reference as ref

        if op.key in ("pmf_pos", "pmf_neg"):
            rho = 0.26 if op.key == "pmf_pos" else -0.26
            if _header(out.value) != "l,mass,log_mass":
                return ["pmf CSV header"]
            table = _load_table(out.value, np.float64)
            return (_check_manifest(out.manifest, "pmf")
                    + ref.check_pmf_table(ref.Mixture(self.p, rho, self.N),
                                          table[:, 0], table[:, 1], table[:, 2]))
        if op.key == "scan":
            return _check_manifest(out.manifest, "scan") + _check_scan_csv(
                out.value, self.p, self.N)
        if op.key == "metrics":
            data = json.loads(out.payload)
            problems = _check_manifest(out.manifest, "metrics")
            if data["var_level"] != 0.99:
                problems.append(f"var_level {data['var_level']!r}")
            return problems + ref.check_report(
                ref.Mixture(self.p, self.rho, self.N), 0.99, data["var_value"],
                data["mode"], data["mode_prob"], data["mean"], data["variance"],
                data["peaks"])
        return _check_calibrate(out.value.decode(), self.p, self.rho, self.N)


def _check_scan_csv(path: str, p: float, n: int) -> list[str]:
    import numpy as np

    import reference as ref

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "rho,var,mode,mode_prob,mean,variance":
        return ["scan CSV header"]
    body = [line for line in lines[1:] if not line.startswith("#")]
    footer = dict(line[2:].split(" = ") for line in lines[1:] if line.startswith("#"))
    rows = np.array([[float(v) for v in line.split(",")] for line in body])
    star = footer.get("rho_star", "")
    return ref.check_scan(
        p, n, 0.99, rows[:, 0], rows[:, 1].astype(int), rows[:, 2].astype(int),
        rows[:, 3], rows[:, 4], rows[:, 5],
        float(star) if star else None, int(footer.get("jump_size", "nan")))


def _check_calibrate(text: str, p: float, rho: float, n: int) -> list[str]:
    import reference as ref

    fields = dict(
        (k.strip(), v.strip()) for k, v in
        (line.split("=", 1) for line in text.splitlines() if "=" in line))
    mix = ref.Mixture(p, rho, n)
    problems = ref.check_natural_params(
        mix, float(fields["alpha"]), float(fields["alpha0"]), float(fields["beta"]),
        float(fields["log_z"]))
    q = float(fields["q"])
    if abs(q - mix.q) > 4e-16 * max(p, abs(mix.q)):
        problems.append(f"q = {q!r}, reference {mix.q!r}")
    lower, upper = (float(v) for v in fields["rho_interval"].strip("()").split(","))
    if lower != ref.lower_bound(p) or upper != 1.0:
        problems.append(f"rho_interval = ({lower!r}, {upper!r})")
    return problems


# --- scan_sweep ---------------------------------------------------------------


class ScanSweep(Workload):
    """In-process ``scan_rho`` at N=10**4 over 201 points for seeded p values."""

    name = "scan_sweep"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n = 300 if tiny else 10_000
        # Scan time depends on p by up to 15%; one p from each fifth of
        # [0.05, 0.95] keeps the mix the same from seed to seed.
        self.ps = [0.05 + 0.18 * (i + self.rng.random()) for i in range(5)]

    def rounds(self):
        i = 0
        while True:
            p = self.ps[i % len(self.ps)]
            i += 1
            yield [Op(key=repr(p), spec={"p": p, "n": self.n}, items=201)]

    def warm_up(self, first_round):
        p = first_round[0].spec["p"]
        return Op(key=f"{p!r}/N=2", spec={"p": p, "n": 2}, items=201)

    def run(self, op, index, tracer=None):
        import dandelion_risk as dr

        result = dr.scan_rho(op.spec["p"], op.spec["n"])
        payload = _sha(result.rho_grid.tobytes(),
                       repr((result.reports, result.rho_star, result.jump_size)).encode())
        return Outcome(value=result, payload=payload)

    def check(self, op, out):
        import reference as ref

        r = out.value
        reps = r.reports
        return ref.check_scan(
            op.spec["p"], op.spec["n"], 0.99, r.rho_grid, [x.var_value for x in reps],
            [x.mode for x in reps], [x.mode_prob for x in reps],
            [x.mean for x in reps], [x.variance for x in reps], r.rho_star,
            r.jump_size, [x.peaks for x in reps])


# --- point_queries ------------------------------------------------------------


class PointQueries(Workload):
    """Single ``risk_report(loss_pmf(ModelConfig(...)))`` calls at seeded points.

    Each block draws BLOCK distinct queries stratified over log N, p, the
    distance of rho from the bounds and the level, then runs the block twice.
    The repeat lies BLOCK queries back, past the 64-entry log-binomial cache.
    """

    name = "point_queries"
    BLOCK = 128
    # (p, rho, N, level) of the known extreme-level VaR defect; first in every run.
    PINNED = (0.4, -0.26, 100, 1 - 1e-15)

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n_max = 1_000 if tiny else 100_000

    def _strata(self, values):
        """BLOCK values cycling through `values`, shuffled."""
        out = [values[i % len(values)] for i in range(self.BLOCK)]
        self.rng.shuffle(out)
        return out

    def _block(self, first: bool) -> list[tuple]:
        rng, b = self.rng, self.BLOCK
        span = math.log(self.n_max / 2)
        ns = [max(2, min(self.n_max, round(2 * math.exp(span * (i + rng.random()) / b))))
              for i in range(b)]
        ps = [0.02 + 0.96 * (i + rng.random()) / b for i in range(b)]
        rng.shuffle(ns)
        rng.shuffle(ps)
        # 3 in 20 within 1e-6 of the lower bound, 3 in 20 of the upper bound.
        places = self._strata(["lower"] * 3 + ["upper"] * 3 + ["inside"] * 14)
        levels = self._strata(LEVELS)
        block = []
        for n, p, place, level in zip(ns, ps, places, levels):
            lo = _lower_bound(p)
            if place == "lower":
                rho = lo + rng.uniform(0.01, 1.0) * 1e-6
            elif place == "upper":
                rho = 1.0 - rng.uniform(0.01, 1.0) * 1e-6
            else:
                rho = rng.uniform(lo + 1e-6, 1.0 - 1e-6)
            block.append((p, rho, n, level))
        if first:
            block[0] = self.PINNED
        return block

    def rounds(self):
        first = True
        while True:
            block = self._block(first)
            first = False
            ops = [Op(key=repr(q), spec={"q": q}, items=1) for q in block]
            yield ops + ops

    def run(self, op, index, tracer=None):
        import dandelion_risk as dr

        p, rho, n, level = op.spec["q"]
        cfg = dr.ModelConfig(n_credits=n, p=p, rho=rho)
        pmf = dr.loss_pmf(cfg)
        report = dr.risk_report(pmf, level)
        enum = fit = None
        if n <= 10:
            # Cross-check small portfolios the way a user verifying a result would.
            enum = dr.enumerate_model(cfg)
            fit = dr.maxent_fit_small(p, cfg.q, n)
        parts = [pmf.log_mass.tobytes(), repr(report).encode()]
        if enum is not None:
            parts += [enum.loss_pmf_bf.tobytes(), repr((enum.moments, enum.total_mass,
                                                        fit.lagrange, fit.matched_params)).encode()]
        return Outcome(value=(pmf, report, enum, fit), payload=_sha(*parts))

    def check(self, op, out):
        import numpy as np

        import reference as ref

        p, rho, n, level = op.spec["q"]
        pmf, rep, enum, fit = out.value
        mix = ref.Mixture(p, rho, n)
        problems = ref.check_log_mass(mix, pmf.log_mass)
        problems += ref.check_report(
            mix, level, rep.var_value, rep.mode, rep.mode_prob, rep.mean,
            rep.variance, rep.peaks, mass=None if problems else np.exp(pmf.log_mass))
        if enum is not None:
            m = fit.matched_params
            problems += ref.check_enumeration(mix, enum.moments, enum.loss_pmf_bf,
                                              enum.total_mass)
            problems += ref.check_maxent_fit(mix, m.alpha, m.alpha0, m.beta, m.log_z)
        return problems


# --- bulk_csv -----------------------------------------------------------------


class BulkCsv(Workload):
    """In-process ``cli.main``: ``sample --count 10**6`` and ``pmf --n 10**6`` to CSV."""

    name = "bulk_csv"
    # One export is a round: a sample file and a pmf file.  Per call, the
    # median of a few runs of two different calls sits between the two kinds
    # and follows the fastest pmf write; per round it follows their sum.
    per_round = True

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.count = 10_000 if tiny else 1_000_000
        self.n_pmf = 10_000 if tiny else 1_000_000
        # Inputs whose CSV rows have the same widths from seed to seed:
        # two-digit losses for the sample, interior rho for the pmf.
        draws = []
        for _ in range(2):
            p = self.rng.uniform(0.3, 0.7)
            draws.append((p, self.rng.uniform(_lower_bound(p) + 0.1, 0.9)))
        (self.sp, self.srho), (self.pp, self.prho) = draws
        self.sample_seed = self.rng.randrange(2**31)

    def _sample(self, count: int) -> Op:
        argv = ["sample", "--p", repr(self.sp), "--rho", repr(self.srho),
                "--n", "100", "--count", str(count),
                "--seed", str(self.sample_seed), "--format", "csv"]
        return Op(key=f"sample/{count}", spec={"argv": argv, "count": count}, items=count)

    def rounds(self):
        pmf = ["pmf", "--p", repr(self.pp), "--rho", repr(self.prho),
               "--n", str(self.n_pmf), "--format", "csv"]
        while True:
            yield [self._sample(self.count),
                   Op(key="pmf", spec={"argv": pmf}, items=self.n_pmf + 1)]

    def warm_up(self, first_round):
        return self._sample(1_000)

    def run(self, op, index, tracer=None):
        from dandelion_risk import cli

        path = os.path.join(self.workdir, f"op{index}_{op.spec['argv'][0]}.csv")
        code = cli.main([*op.spec["argv"], "--output", path])
        if code != 0:
            raise RuntimeError(f"{op.key}: exit code {code}")
        size = os.path.getsize(path) + os.path.getsize(path + ".manifest.json")
        return Outcome(value=path, payload=_file_digest(path),
                       manifest=_read_sidecar(path), bytes_out=size,
                       files=[path, path + ".manifest.json"])

    def check(self, op, out):
        import numpy as np

        import reference as ref

        command = op.spec["argv"][0]
        problems = _check_manifest(out.manifest, command)
        if command == "sample":
            if _header(out.value) != "draw_index,l0,loss":
                return problems + ["sample CSV header"]
            table = _load_table(out.value, np.int64)
            if not np.array_equal(table[:, 0], np.arange(len(table))):
                problems.append("draw_index is not 0..count-1")
            return problems + ref.check_sample(table[:, 1:], op.spec["count"], 100,
                                               self.sp, self.srho)
        if _header(out.value) != "l,mass,log_mass":
            return problems + ["pmf CSV header"]
        table = _load_table(out.value, np.float64)
        return problems + ref.check_pmf_table(
            ref.Mixture(self.pp, self.prho, self.n_pmf),
            table[:, 0], table[:, 1], table[:, 2])


WORKLOADS = {w.name: w for w in (CliCold, ScanSweep, PointQueries, BulkCsv)}


def probe_layers(tracer) -> int:
    """One minimal call through every traced name; returns the bytes printed.

    A traced run ends with this so that every layer has a measured time on
    every workload; on a workload that does not use a layer, that layer's
    per-operation figure is this floor divided by the operation count.
    """
    import dandelion_risk as dr
    from dandelion_risk import cli

    tracer.op = -2
    cfg = dr.ModelConfig(n_credits=2, p=0.4, rho=0.1)
    dr.risk_report(dr.loss_pmf(cfg))
    dr.scan_rho(0.4, 2, dr.GridSpec(count=3))
    dr.sample(cfg, 1, 0)
    dr.enumerate_model(cfg)
    dr.maxent_fit_small(0.4, cfg.q, 2)
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["calibrate", "--p", "0.4", "--rho", "0.1", "--n", "2"])
    return len(buf.getvalue().encode())
