"""Benchmark of dandelion-risk: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

NAME is one of cli_cold, scan_sweep, point_queries, bulk_csv (see
BENCHMARK.json and bench/README.md for why each exists).  With --trace 0 the
run reports the end-to-end metrics, with --trace 1 the per-layer metrics and
the tracing overhead.  Every run checks every output against an independent
reference and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

Each run works in .bench_out/ under the current directory: temporary outputs go
in a per-run directory that is removed at the end, and a traced run leaves its
spans in .bench_out/<workload>-seed<N>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_cold", "scan_sweep", "point_queries", "bulk_csv")
PROBES = 3  # fresh processes per untraced run that only measure set-up time
# setup_s is reported in *start-up reference seconds*: each probe's wall time
# is divided by the mean wall time of a reference start run just before and
# just after it, and multiplied by REFERENCE_START_S.  The reference start is a
# fresh interpreter that imports numpy and scipy.special: the same kind of
# work as the package's set-up (byte-code execution, extension loading, page
# faults) and none of the package's code.  On a shared 2-core machine, over
# 45 groups of five probes in 7 minutes, the median probe's wall time ranged
# over 1.09-1.73 s while its ratio to the reference start stayed within
# 2.72-3.35 (interquartile range 4% of the median).  On a machine where the
# reference start takes REFERENCE_START_S, these are wall seconds.
REFERENCE_START = ("-c", "import numpy, scipy.special")
REFERENCE_START_S = 0.45
DEADLINE_S = 170.0  # a run must end within 180 s

# What the generic end-to-end metrics are called on each workload.
DISPLAY_NAMES = {
    "cli_cold": {"latency_p50_s": "cli_latency_p50_s",
                 "latency_tail_s": "cli_latency_tail_s",
                 "items_per_s": "cli_processes_per_s"},
    "scan_sweep": {"latency_p50_s": "scan_latency_p50_s",
                   "latency_tail_s": "scan_latency_tail_s",
                   "items_per_s": "scan_points_per_s"},
    "point_queries": {"latency_p50_s": "point_latency_p50_s",
                      "latency_tail_s": "point_latency_tail_s",
                      "items_per_s": "points_per_s"},
    "bulk_csv": {"latency_p50_s": "csv_export_latency_p50_s",
                 "latency_tail_s": "csv_export_latency_tail_s",
                 "items_per_s": "csv_rows_per_s"},
}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    The tail is the highest percentile with at least ten samples beyond it,
    but never below the upper quartile: with fewer than 40 samples that
    percentile would sit at or below the quartile, and the rule stays
    continuous as the sample count changes from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 40:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    q3 = statistics.quantiles(xs, n=4, method="inclusive")[2] if n > 1 else xs[0]
    return q3, 75.0, sum(x > q3 for x in xs)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "seed": seed}


class Bench:
    def __init__(self, root: str, seed: int, seconds: float, tiny: bool) -> None:
        self.root, self.seed, self.seconds, self.tiny = root, seed, seconds, tiny
        self.deadline = time.monotonic() + DEADLINE_S
        self.out_dir = os.path.join(root, ".bench_out")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def _spawn(self, workload: str, trace: int, role: str, workdir: str) -> dict:
        spans = os.path.join(self.out_dir, f"{workload}-seed{self.seed}.spans.jsonl")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        spawn_t = time.monotonic()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--trace", str(trace),
               "--role", role, "--spawn-t", repr(spawn_t), "--workdir", workdir,
               "--spans", spans] + (["--tiny"] if self.tiny else [])
        # A process group of its own, so that a worker out of time is killed together
        # with any CLI process it started.
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} {role} worker did not finish in time") from exc
        if proc.returncode != 0 or not stdout.strip():
            raise BenchError(f"{workload} {role} worker failed "
                             f"(exit {proc.returncode}):\n{stderr[-2000:]}")
        return json.loads(stdout.strip().splitlines()[-1])

    def _reference_start(self) -> float:
        """Wall seconds of one reference start (see REFERENCE_START)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *REFERENCE_START], env=self.env,
                                  cwd=self.root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("reference start did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"reference start failed (exit {proc.returncode})")
        return time.monotonic() - start

    def _setup_times(self, workload: str, workdir: str) -> tuple[list, list]:
        """Set-up of PROBES fresh probes: (reference seconds, wall seconds)."""
        scaled, wall = [], []
        before = self._reference_start()
        for _ in range(PROBES):
            setup = self._spawn(workload, 0, "probe", workdir)["setup_s"]
            after = self._reference_start()
            scaled.append(setup * 2 * REFERENCE_START_S / (before + after))
            wall.append(setup)
            before = after
        return scaled, wall

    def run(self, workload: str, trace: int) -> dict:
        workdir = os.path.join(self.out_dir, f"run-{os.getpid()}-{workload}")
        os.makedirs(workdir, exist_ok=True)
        try:
            if not trace:
                setups, setups_wall = self._setup_times(workload, workdir)
            main = self._spawn(workload, trace, "main", workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lat, raw = main["latencies"], main["raw_latencies"]
        value, pct, beyond = tail(lat)
        report = {
            "workload": workload,
            "attempted": main["attempted"],
            "failed": main["failed"],
            "failures": main["failures"],
            "known_defect": main["known_defect"],
            "known_defect_examples": main["known_defect_examples"],
            "samples": len(lat),
            "tail_percentile": pct,
            "tail_beyond": beyond,
        }
        if trace:
            report["metrics"] = main["layers"]
        else:
            report["metrics"] = {
                "setup_s": statistics.median(setups),
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": value,
                "items_per_s": sum(main["items"]) / sum(lat),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            report["wall"] = {
                "setup_s": statistics.median(setups_wall),
                "latency_p50_s": statistics.median(raw),
                "latency_tail_s": tail(raw)[0],
                "items_per_s": sum(main["items"]) / sum(raw),
            }
        return report


def _units(spec: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_report(report: dict, units: dict) -> None:
    wl = report["workload"]
    names = DISPLAY_NAMES[wl]
    for name, value in report["metrics"].items():
        label = names.get(name, name)
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{report['tail_percentile']:.2f} of {report['samples']} "
                    f"samples, {report['tail_beyond']} beyond)")
        wall = report.get("wall", {}).get(name)
        if wall is not None:
            note += f"  [wall: {wall:.6g}]"
        print(f"{wl:14s} {label:36s} {value:.6g} {units[name]}{note}")
    share = (report["failed"] + report["known_defect"]) / report["attempted"]
    print(f"{wl:14s} {'ops_failed_share':36s} {share:.6g} share "
          f"({report['failed']} failed and {report['known_defect']} with only the "
          f"known defect, of {report['attempted']} operations)")
    for failure in report["failures"]:
        print(f"{wl:14s} failed: {failure}")
    for example in report["known_defect_examples"]:
        print(f"{wl:14s} {example}")


def self_test(root: str) -> int:
    """Check the checker on planted errors, then run every workload tiny."""
    import numpy as np

    import reference as ref

    ok = True
    mix = ref.Mixture(0.4, -0.26, 100)
    truth = mix.log_mass.copy()
    cases = {
        "reference VaR at the known defect is 88": mix.value_at_risk(1 - 1e-15) == 88,
        "exact report passes": not ref.check_report(
            mix, 1 - 1e-15, 88, mix.mode(), float(np.exp(truth[mix.mode()])),
            mix.mean, mix.variance, mix.peaks()),
        "wrong VaR is flagged": bool(ref.check_report(
            mix, 1 - 1e-15, 100, mix.mode(), float(np.exp(truth[mix.mode()])),
            mix.mean, mix.variance, mix.peaks())),
        "exact pmf passes": not ref.check_pmf_table(
            mix, np.arange(101), np.exp(truth), truth),
    }
    # The package's masses there sum to 1 - 2.3e-14, so its left cumulative sum
    # never reaches 1 - 1e-15: VaR 100 is the known defect, VaR 50 is not.
    short = np.exp(truth) * (1 - 2.3e-14)
    known = ref.check_var_known_defect(mix, 1 - 1e-15, 100, short)
    cases["VaR 100 at the known defect is labelled the known defect"] = (
        len(known) == 1 and known[0].startswith(ref.KNOWN_DEFECT))
    wrong_var = ref.check_var_known_defect(mix, 1 - 1e-15, 50, short)
    cases["a VaR the known defect does not explain is a failure"] = (
        len(wrong_var) == 1 and not wrong_var[0].startswith(ref.KNOWN_DEFECT))
    # 1 - level equal to P(L > 60) up to rounding: 60 and 61 are both answers.
    tie_level = 1.0 - float(np.exp(mix.log_upper_tail[61]))
    cases["VaR at a near-tie accepts either index, and no other"] = (
        mix.var_accepted(tie_level, 60) and mix.var_accepted(tie_level, 61)
        and not mix.var_accepted(tie_level, 59) and not mix.var_accepted(tie_level, 62))
    wrong = truth.copy()
    wrong[37] += 1e-6
    cases["wrong pmf entry is flagged"] = bool(ref.check_pmf_table(
        mix, np.arange(101), np.exp(wrong), wrong))
    for name, passed in cases.items():
        print(f"self-test {name}: {'ok' if passed else 'FAILED'}")
        ok &= passed

    spec = load_spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            bench = Bench(root, seed=1, seconds=1, tiny=True)
            report = bench.run(workload, trace)
            want = set(_units(spec, trace))
            got = set(report["metrics"])
            passed = got == want
            print(f"self-test {workload} --trace {trace} emits every metric: "
                  f"{'ok' if passed else 'FAILED, missing ' + str(sorted(want - got))}"
                  f" ({report['failed']} of {report['attempted']} operations failed, "
                  f"{report['known_defect']} with only the known defect)")
            ok &= passed
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src", "dandelion_risk")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: no package source at {src}; run from the root of a "
              "dandelion-risk checkout", file=sys.stderr)
        return 2
    # One CPU for the whole run, inherited by every process it starts: the
    # calibration kernel then always runs on the core that did the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The build step: byte-compile once so that no timed process compiles.
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)

    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    units = _units(spec, args.trace)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        bench = Bench(root, args.seed, args.seconds, tiny=False)
        try:
            reports.append(bench.run(name, args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1], units)
        if args.trace:
            print(f"{name:14s} spans written to .bench_out/{name}-seed{args.seed}.spans.jsonl")

    attempted = sum(r["attempted"] for r in reports)
    # Operations whose only mismatch is the known defect are printed above and
    # not counted here; any other mismatch makes the run incorrect.
    failed = sum(r["failed"] for r in reports)
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
