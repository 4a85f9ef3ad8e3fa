"""One benchmark process for one workload, started fresh by ``run.py``.

    python worker.py --workload W --seed S --seconds T --trace 0|1
                     --role main|probe --spawn-t T0 --workdir DIR [--spans FILE] [--tiny]

A probe imports the package (for in-process workloads), runs the workload's
small warm-up operation and reports its set-up time: from T0, when it was
spawned, to the end of the warm-up.  The main worker forks a checker process,
runs the warm-up and every distinct operation of the first round untimed, then
runs whole rounds as a closed loop with one client for T seconds, timing each
operation and checking each output between operations (checks are not timed).
Checks run in the forked child, so that the checker's memory never counts
toward the worker's peak RSS.  With --trace 1 it runs rounds for T/2
seconds untraced, then replays the same rounds with the tracer installed; the
difference is the tracing overhead and the traced replay gives the per-layer
figures.

The last line of stdout is one JSON object for ``run.py``.
"""

import time

SCRIPT_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

CALIBRATE_EVERY_S = 0.25


def _serve_checks(workload, conn) -> None:
    """The checker process: answer each (op, outcome) with its problems."""
    import reference

    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        op, out = request
        try:
            problems = workload.check(op, out)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {exc!r}"]
        known = [p for p in problems if p.startswith(reference.KNOWN_DEFECT)]
        conn.send(([p for p in problems if p not in known], known))


class Checker:
    """Runs ``workload.check`` in a child forked from the worker."""

    def __init__(self, workload) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_serve_checks, args=(workload, child_conn))
        self._proc.start()
        child_conn.close()

    def check(self, op, out) -> tuple[list[str], list[str]]:
        """(failures, mismatches explained by the known defect) of one output."""
        self._conn.send((op, out))
        return self._conn.recv()

    def close(self) -> None:
        self._conn.send(None)
        self._conn.close()
        self._proc.join()


class Runner:
    """Runs operations, keeps their timings and checks their outputs."""

    def __init__(self, workload, checker, first_calibration: float) -> None:
        self.workload = workload
        self.checker = checker
        self.first_seen: dict[str, tuple] = {}
        self.raw: list[float] = []  # wall seconds of each timed operation
        self.segments: list[int] = []  # index of the calibration before each
        self.items: list[int] = []
        self.op_rounds: list[int] = []  # round of each timed operation
        self.round = 0
        self.calibrations = [first_calibration]
        self._calibrated_at = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known_defect = 0  # operations whose only mismatch is the known defect
        self.known_defect_examples: list[str] = []
        self.next_index = 1
        self.child_rss_kb = 0
        self.bytes_out = 0
        self.child_traces: list[dict] = []

    def calibrate(self, force: bool = False) -> None:
        if not self.workload.rescaled:
            return
        if force or time.monotonic() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrations.append(calibration.kernel_time())
            self._calibrated_at = time.monotonic()

    def latencies(self, start: int = 0, stop: int | None = None) -> list[float]:
        """Timed operations in reference seconds, each rescaled by the mean of
        the calibrations just before and just after it."""
        if not self.workload.rescaled:
            return self.raw[start:stop]
        cal = self.calibrations
        return [raw * 2 * calibration.K_REF / (cal[s] + cal[s + 1])
                for raw, s in zip(self.raw[start:stop], self.segments[start:stop])]

    def run(self, op, tracer=None, timed=True) -> None:
        self.attempted += 1
        index = self.next_index
        self.next_index += 1
        if timed:
            self.calibrate()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = self.workload.run(op, index, tracer)
        except Exception as exc:  # an operation that raises is a failed operation
            self._fail(op, f"raised {exc!r}")
            return
        if timed:
            self.raw.append(time.perf_counter() - start)
            self.segments.append(len(self.calibrations) - 1)
            self.items.append(op.items)
            self.op_rounds.append(self.round)
        self.child_rss_kb = max(self.child_rss_kb, out.rss_kb)
        self.bytes_out += out.bytes_out
        if out.trace is not None:
            out.trace["op"] = index
            self.child_traces.append(out.trace)
        problems, known = self._verify(op, out)
        for path in out.files:
            os.remove(path)
        if problems:
            self._fail(op, "; ".join(problems[:3]))
        elif known:
            self.known_defect += 1
            if len(self.known_defect_examples) < 3:
                self.known_defect_examples.append(f"{op.key}: {'; '.join(known[:3])}")

    def per_round(self, values: list) -> list:
        """`values` of the timed operations, summed over each round."""
        sums: dict[int, float] = {}
        for rnd, value in zip(self.op_rounds, values):
            sums[rnd] = sums.get(rnd, 0) + value
        return list(sums.values())

    def _verify(self, op, out) -> tuple[list[str], list[str]]:
        manifest = (None if out.manifest is None
                    else workloads.strip_timestamp(out.manifest))
        seen = self.first_seen.get(op.key)
        if seen is None:
            problems, known = self.checker.check(op, out)
            self.first_seen[op.key] = (out.payload, manifest, problems, known)
            return problems, known
        # A repeat with the same output has the same verdict as the first run.
        problems, known = list(seen[2]), seen[3]
        if out.payload != seen[0]:
            problems.append("data payload differs from an earlier run of the same input")
        if manifest != seen[1]:
            problems.append("manifest (without timestamp) differs from an earlier run")
        return problems, known

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.key}: {message}")


def _import_package() -> dict:
    before = len(sys.modules)
    start = time.perf_counter()
    import dandelion_risk.cli  # noqa: F401

    return {
        "import_s": time.perf_counter() - start,
        "import_modules": len(sys.modules) - before,
        "scipy_stats": int("scipy.stats" in sys.modules),
    }


def _traced_replay(runner, workload, plan, info, spawn_t, spans_path) -> dict:
    """Replay `plan` with the tracer on; return the per-layer metrics."""
    import tracer as tracing

    tr = tracing.Tracer()
    if workload.in_process:
        tr.install()
    hits0, misses0 = tracing.binom_cache_counts()
    replay_from = len(runner.raw)
    calibrations_from = len(runner.calibrations)
    bytes_before = runner.bytes_out
    for rnd in plan:
        runner.round += 1
        for op in rnd:
            runner.run(op, tracer=tr)
    runner.calibrate(force=True)
    ops = len(runner.raw) - replay_from
    # Span self times are rescaled by the replay's median calibration; the
    # start-up and import figures stay in wall seconds, like setup_s.
    scale = 1.0
    if workload.rescaled:
        scale = calibration.K_REF / statistics.median(
            runner.calibrations[calibrations_from - 1:])
    bytes_out = runner.bytes_out - bytes_before
    stats: dict = {}
    hits = lookups = 0
    children = runner.child_traces
    if workload.in_process:
        imports = dict(info, startup_s=info["script_start"] - spawn_t)
    else:
        # Import figures of the traced CLI processes; then trace the probe here.
        imports = {key: statistics.fmean(c[key] for c in children) for key in
                   ("startup_s", "import_s", "import_modules", "scipy_stats")}
        for child in children:
            tracing.merge_stats(stats, child["stats"])
            hits += child["cache_hits"]
            lookups += child["cache_lookups"]
        _import_package()
        tr.install()
        hits0, misses0 = tracing.binom_cache_counts()
    bytes_out += workloads.probe_layers(tr)
    h, m = tracing.binom_cache_counts()
    hits += h - hits0
    lookups += h + m - hits0 - misses0
    tracing.merge_stats(stats, tr.stats())
    for entry in stats.values():
        entry["self_s"] *= scale
    untraced = sum(runner.latencies(replay_from - ops, replay_from))
    traced = sum(runner.latencies(replay_from))
    layers = {
        "interp.startup_s": imports["startup_s"],
        "import.s": imports["import_s"],
        "import.modules": imports["import_modules"],
        "import.scipy_stats": imports["scipy_stats"],
        **tracing.layer_metrics(stats, ops, hits, lookups, bytes_out),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        tracing.write_spans(fh, tr.spans)
        for child in children:
            tracing.write_spans(fh, child["spans"], op=child["op"])
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe"), default="main")
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=os.devnull)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    kind = workloads.WORKLOADS[args.workload]
    info = {"script_start": SCRIPT_START}
    if kind.in_process:
        info.update(_import_package())
    workload = kind(args.seed, args.tiny, args.workdir)
    rounds = workload.rounds()
    first_round = next(rounds)
    warm_up = workload.warm_up(first_round)
    if args.role == "probe":
        out = workload.run(warm_up, 0)
        ready = time.monotonic()
        for path in out.files:
            os.remove(path)
        print(json.dumps({"setup_s": ready - args.spawn_t}))
        return 0

    # Forked before the first operation: the worker's heap is still small, so
    # later writes to it cost no copy-on-write faults inside timed operations.
    checker = Checker(workload)
    result = {}
    try:
        runner = Runner(workload, checker, calibration.kernel_time())
        # Untimed: the warm-up and one run of every distinct operation of the
        # first round, so that first-call costs (caches, allocator growth)
        # stay out of the timed loop.
        untimed = {warm_up.key: warm_up, **{op.key: op for op in first_round}}
        for op in untimed.values():
            runner.run(op, timed=False)
        budget = args.seconds / 2 if args.trace else args.seconds
        plan = [first_round]
        start = time.monotonic()
        for op in first_round:
            runner.run(op)
        while time.monotonic() - start < budget:
            plan.append(next(rounds))
            runner.round += 1
            for op in plan[-1]:
                runner.run(op)
        if args.trace:
            result["layers"] = _traced_replay(runner, workload, plan, info,
                                              args.spawn_t, args.spans)
        runner.calibrate(force=True)
    finally:
        checker.close()
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = runner.child_rss_kb
    latencies, raw, items = runner.latencies(), runner.raw, runner.items
    if workload.per_round:
        latencies, raw, items = (runner.per_round(x) for x in (latencies, raw, items))
    result.update(
        latencies=latencies,
        raw_latencies=raw,
        items=items,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        known_defect=runner.known_defect,
        known_defect_examples=runner.known_defect_examples,
        peak_rss_mb=peak_kb / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
