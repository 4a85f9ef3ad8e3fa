"""Traced stand-in for ``python -m dandelion_risk``: python cli_child.py TRACE_FILE ARGS...

Times the package import, wraps the package's public functions (see
``tracer.py``), runs the package's ``__main__`` exactly as ``-m`` would, and
writes the span statistics, spans and import figures to TRACE_FILE as JSON.
The exit code is the CLI's.
"""

import time

SCRIPT_START = time.monotonic()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import dandelion_risk.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    scipy_stats = int("scipy.stats" in sys.modules)

    import tracer

    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    hits0, misses0 = tracer.binom_cache_counts()
    sys.argv = ["dandelion_risk", *argv]
    try:
        runpy.run_module("dandelion_risk", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    hits, misses = tracer.binom_cache_counts()
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({
            "script_start": SCRIPT_START,
            "import_s": import_s,
            "import_modules": modules,
            "scipy_stats": scipy_stats,
            "cache_hits": hits - hits0,
            "cache_lookups": hits + misses - hits0 - misses0,
            "stats": tr.stats(),
            "spans": tr.spans,
        }, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
