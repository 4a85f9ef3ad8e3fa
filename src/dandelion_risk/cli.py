"""Command-line front end: calibration, pmf evaluation, metrics, scans, sampling.

Emits plot-ready CSV or JSON.  The reported loss excludes the central node,
so pmf support is {0, ..., N}.  Every file output is paired with a run
manifest (embedded in JSON documents, sidecar `<file>.manifest.json` next to
CSV files, stderr when streaming CSV to stdout); reruns with identical flags
produce byte-identical data payloads, with only manifest timestamps differing.

Exit codes: 0 success, 2 argument or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core_model import ModelConfig, calibrate, rho_bounds
from .distribution import loss_pmf
from .metrics import GridSpec, risk_report, scan_rho
from .oracle import GENERATOR_NAME, sample

OUTDIR_ENV = "DANDELION_RISK_OUTDIR"

# CSV rows are formatted and written this many at a time, so the memory the
# writer holds does not grow with the row count.
CSV_BLOCK_ROWS = 65536


@dataclass
class RunManifest:
    """Provenance record accompanying every data payload."""

    command: str
    parameters: dict
    tool_version: str = __version__
    seed: int | None = None
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _fmt(x) -> str:
    # repr gives the shortest round-trip decimal form for floats.
    return repr(float(x)) if isinstance(x, float) else str(x)


def _resolve_output(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _csv_chunks(columns: dict, extras: dict):
    """Yield the CSV text: header, rows in blocks, then `# key = value` lines."""
    yield ",".join(columns) + "\n"
    n_rows = len(next(iter(columns.values()), ()))
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        # tolist() gives Python ints and floats, whose repr is the shortest
        # round-trip decimal form.
        cells = [map(repr, np.asarray(col[start:start + CSV_BLOCK_ROWS]).tolist())
                 for col in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
    for key, value in extras.items():
        yield f"# {key} = {'' if value is None else _fmt(value)}\n"


def _emit(columns: dict, extras: dict, manifest: RunManifest, fmt: str,
          output: str | None) -> None:
    """Write one result table as CSV or JSON with its run manifest.

    JSON embeds the manifest next to `data` (columns and extras).  CSV puts the
    manifest in a sidecar `<file>.manifest.json`, or on stderr when the rows
    go to stdout.
    """
    if fmt == "json":
        data = {name: np.asarray(col).tolist() for name, col in columns.items()}
        document = {"manifest": asdict(manifest), "data": {**data, **extras}}
        chunks, sidecar = [json.dumps(document, sort_keys=True) + "\n"], None
    else:
        chunks, sidecar = _csv_chunks(columns, extras), manifest.to_json() + "\n"
    if output is None:
        sys.stdout.writelines(chunks)
        if sidecar is not None:
            sys.stderr.write(sidecar)
        return
    path = _resolve_output(output)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        if sidecar is not None:
            with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
                fh.write(sidecar)
    except OSError as exc:
        raise _IOFailure(f"cannot write output file {path!r}: {exc}") from exc


class _IOFailure(Exception):
    pass


# --- subcommands --------------------------------------------------------------
#
# Each table command computes its result and returns (columns, extras): an
# ordered dict of equal-length columns and a dict of scalars, for _emit.
# calibrate prints its text report itself and returns None.


def _cmd_calibrate(args) -> None:
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    params = calibrate(cfg)
    bounds = rho_bounds(args.p)
    print(f"alpha   = {_fmt(params.alpha)}")
    print(f"alpha0  = {_fmt(params.alpha0)}")
    print(f"beta    = {_fmt(params.beta)}")
    print(f"log_z   = {_fmt(params.log_z)}")
    print(f"q       = {_fmt(cfg.q)}")
    print(f"rho_interval = ({_fmt(bounds.lower)}, {_fmt(bounds.upper)})")


def _cmd_pmf(args):
    pmf = loss_pmf(ModelConfig(n_credits=args.n, p=args.p, rho=args.rho))
    return {"l": np.arange(pmf.n + 1), "mass": pmf.mass, "log_mass": pmf.log_mass}, {}


def _cmd_metrics(args):
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    return {}, asdict(risk_report(loss_pmf(cfg), level=args.level))


def _cmd_scan(args):
    result = scan_rho(
        args.p,
        args.n,
        grid_spec=GridSpec(count=args.points, margin=args.margin),
        level=args.level,
        jump_threshold=args.jump_threshold,
    )
    reports = result.reports
    columns = {
        "rho": result.rho_grid,
        "var": [rep.var_value for rep in reports],
        "mode": [rep.mode for rep in reports],
        "mode_prob": [rep.mode_prob for rep in reports],
        "mean": [rep.mean for rep in reports],
        "variance": [rep.variance for rep in reports],
    }
    return columns, {"rho_star": result.rho_star, "jump_size": result.jump_size}


def _cmd_sample(args):
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    draws = sample(cfg, args.count, args.seed)
    columns = {"draw_index": np.arange(len(draws)), "l0": draws[:, 0],
               "loss": draws[:, 1]}
    return columns, {}


# --- parser -------------------------------------------------------------------


def _add_model_flags(parser, with_rho=True):
    parser.add_argument("--p", type=float, required=True,
                        help="Default probability shared by all nodes, in (0,1).")
    if with_rho:
        parser.add_argument("--rho", type=float, required=True,
                            help="Central correlation; must lie strictly inside "
                                 "the admissible interval for p.")
    parser.add_argument("--n", type=int, required=True,
                        help="Number of non-central credits (loss support is 0..n; "
                             "the central node is excluded from the loss).")


def _add_output_flags(parser, formats=("csv", "json")):
    parser.add_argument("--format", choices=list(formats), default=formats[0],
                        help="Output format (default: %(default)s).")
    parser.add_argument("--output", "-o", default=None,
                        help="Output file path; stdout when omitted. Relative "
                             f"paths resolve under ${OUTDIR_ENV} when set.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dandelion-risk",
        description="Star-graph Ising credit-risk model: exact loss "
                    "distributions, risk metrics, correlation scans, and "
                    "sampling. The loss counts defaulted non-central credits "
                    "only (support 0..N).",
        epilog=f"Exit codes: 0 ok, 2 argument/domain error, 3 I/O error. "
               f"Set ${OUTDIR_ENV} to redirect relative output paths.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="Print natural parameters and log Z.")
    _add_model_flags(cal)
    cal.set_defaults(func=_cmd_calibrate)

    pmf = sub.add_parser("pmf", help="Emit the exact loss pmf (l, mass, log_mass).")
    _add_model_flags(pmf)
    _add_output_flags(pmf)
    pmf.set_defaults(func=_cmd_pmf, manifest_keys=("p", "rho", "n", "format"))

    met = sub.add_parser("metrics", help="Emit VaR, mode, moments, peaks as JSON.")
    _add_model_flags(met)
    met.add_argument("--level", type=float, default=0.99,
                     help="VaR confidence level in (0,1) (default: %(default)s).")
    _add_output_flags(met, formats=("json",))
    met.set_defaults(func=_cmd_metrics, manifest_keys=("p", "rho", "n", "level"))

    scan = sub.add_parser("scan", help="Sweep rho and emit per-point risk metrics.")
    _add_model_flags(scan, with_rho=False)
    scan.add_argument("--points", type=int, default=201,
                      help="Grid size, >= 3 (default: %(default)s).")
    scan.add_argument("--margin", type=float, default=1e-3,
                      help="Distance kept from each open rho bound "
                           "(default: %(default)s).")
    scan.add_argument("--level", type=float, default=0.99,
                      help="VaR confidence level (default: %(default)s).")
    scan.add_argument("--jump-threshold", type=int, default=10,
                      help="Smallest adjacent mode change reported as a "
                           "discontinuity (default: %(default)s).")
    _add_output_flags(scan)
    scan.set_defaults(func=_cmd_scan, manifest_keys=(
        "p", "n", "points", "margin", "level", "jump_threshold", "format"))

    smp = sub.add_parser("sample", help="Draw (l0, loss) pairs with a seeded RNG.")
    _add_model_flags(smp)
    smp.add_argument("--count", type=int, required=True, help="Number of draws, >= 1.")
    smp.add_argument("--seed", type=int, default=0,
                     help="RNG seed; fully determines the stream "
                          "(default: %(default)s).")
    _add_output_flags(smp)
    smp.set_defaults(func=_cmd_sample, generator=GENERATOR_NAME, manifest_keys=(
        "p", "rho", "n", "count", "generator", "format"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = args.func(args)
        if table is not None:
            manifest = RunManifest(
                command=args.command,
                parameters={key: getattr(args, key) for key in args.manifest_keys},
                seed=getattr(args, "seed", None),
            )
            _emit(*table, manifest, args.format, args.output)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
