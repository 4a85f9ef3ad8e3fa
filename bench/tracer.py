"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of each package module at
every name the package binds them to (``cli.loss_pmf``, ``metrics.risk_report``,
``dandelion_risk.scan_rho`` ...) with a wrapper that records a span: name,
start, end, parent span and the benchmark operation it belongs to.  Nothing in
the package's source changes.  Spans stay in memory and are written out when
the run ends.

A span's self time is its duration minus the durations of its direct children;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Module -> public names traced.  Layers are modules.
TARGETS = {
    "core_model": ("ModelConfig", "calibrate"),
    "distribution": ("loss_pmf", "peak_indices"),
    "metrics": ("risk_report", "scan_rho"),
    "oracle": ("sample", "enumerate_model", "maxent_fit_small", "maxent_moments"),
    "cli": ("main",),
}

PACKAGE = "dandelion_risk"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at each name bound to it; absent targets are skipped."""
        for module in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, names in TARGETS.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            for fname in names:
                original = getattr(owner, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
        return out


def write_spans(fh, spans, op=None) -> None:
    """Write spans as JSON lines; `op` overrides the operation id of each."""
    for name, start, end, parent, span_op in spans:
        fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                             "op": span_op if op is None else op}) + "\n")


def binom_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the package's log-binomial table cache, if it has one."""
    table = getattr(sys.modules.get(f"{PACKAGE}.distribution"), "_log_binom_table", None)
    info = getattr(table, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def merge_stats(into: dict, more: dict) -> None:
    for name, entry in more.items():
        target = into.setdefault(name, {"calls": 0, "self_s": 0.0})
        for key, value in entry.items():
            target[key] += value


def layer_metrics(stats: dict, ops: int, cache_hits: int, cache_lookups: int,
                  bytes_out: int) -> dict[str, float]:
    """Per-operation layer metrics from summed span statistics."""
    def calls(*names):
        return sum(stats.get(n, {}).get("calls", 0) for n in names) / ops

    def self_s(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names) / ops

    return {
        "core_model.calls": calls("core_model.ModelConfig", "core_model.calibrate"),
        "core_model.self_s": self_s("core_model.ModelConfig", "core_model.calibrate"),
        "distribution.loss_pmf.calls": calls("distribution.loss_pmf"),
        "distribution.loss_pmf.self_s": self_s("distribution.loss_pmf"),
        "distribution.binom_table.hit_ratio":
            cache_hits / cache_lookups if cache_lookups else 0.0,
        "distribution.peak_indices.self_s": self_s("distribution.peak_indices"),
        "metrics.risk_report.self_s": self_s("metrics.risk_report"),
        "metrics.scan_rho.self_s": self_s("metrics.scan_rho"),
        "oracle.sample.self_s": self_s("oracle.sample"),
        "oracle.enumerate.self_s": self_s("oracle.enumerate_model"),
        "oracle.maxent_fit.self_s": self_s("oracle.maxent_fit_small"),
        "oracle.maxent_moments.calls": calls("oracle.maxent_moments"),
        "oracle.maxent_moments.self_s": self_s("oracle.maxent_moments"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_out": bytes_out / ops,
    }
