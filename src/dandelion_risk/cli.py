"""Command-line front end: calibration, pmf evaluation, metrics, scans, sampling.

Emits plot-ready CSV or JSON.  The reported loss excludes the central node,
so pmf support is {0, ..., N}.  Every file output is paired with a run
manifest (embedded in JSON documents, sidecar `<file>.manifest.json` next to
CSV files, stderr when streaming CSV to stdout).  The manifest records the
subcommand, its `parameters` (every flag of the subcommand except `--output`
and `--seed`, plus the sampler's generator), the seed, the tool version and a
UTC timestamp; reruns with identical flags produce byte-identical data
payloads, with only manifest timestamps differing.

Exit codes: 0 success, 2 argument or domain error (including a size too
large to allocate), 3 I/O error: an output file or sidecar that cannot be
written, or a stdout or stderr that is closed or full.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .core_model import ModelConfig, calibrate, rho_bounds
from .distribution import loss_pmf
from .metrics import GridSpec, risk_report, scan_rho
from .oracle import GENERATOR_NAME, sample

OUTDIR_ENV = "DANDELION_RISK_OUTDIR"

# CSV rows and JSON column values are formatted and written this many at a
# time, so the memory the writer holds does not grow with the row count.  A
# CSV block's byte matrix takes 25 bytes per float cell and at most 21 per
# int64 cell: ~4 MB for the pmf's three columns.
CSV_BLOCK_ROWS = 65536

# Parsed attributes that are not run parameters: the subcommand and its
# handler, where the output goes, and the seed, a top-level manifest key.
NOT_PARAMETERS = frozenset({"command", "func", "output", "seed"})


def _resolve_output(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _int_field(col: np.ndarray) -> np.ndarray:
    """Decimal digits of an integer column, one NUL-padded row per cell."""
    neg = col < 0
    # Negated in uint64, so the int64 minimum keeps its magnitude 2**63.
    mag = col.astype(np.uint64)
    mag = np.where(neg, -mag, mag)
    width = len(str(int(mag.max())))
    field = np.zeros((len(col), width + 1), np.uint8)
    field[neg, 0] = ord("-")
    rest, digit = np.divmod(mag, 10)
    field[:, width] = digit + ord("0")
    for j in range(width - 1, 0, -1):
        rest, digit = np.divmod(rest, 10)
        # A leading zero is padding; the last digit is kept even when zero.
        field[:, j] = np.where(rest | digit, digit + ord("0"), 0)
    return field


def _float_field(col: np.ndarray) -> np.ndarray:
    """Python's repr of each float, one NUL-padded row of 24 bytes per cell.

    24 characters is the longest float64 repr.  `+0.0` cells, most of a
    wide pmf's `mass` column, take the constant and skip `repr`.
    """
    text = np.full(len(col), b"0.0", "S24")
    other = np.flatnonzero((col != 0) | np.signbit(col))
    text[other] = list(map(repr, col[other].tolist()))
    return text.view(np.uint8).reshape(len(col), 24)


def _csv_block(cols: list) -> str:
    """The CSV rows of equal-length columns, all cells built as one matrix."""
    n = len(cols[0])
    parts = []
    for col in cols:
        if col.dtype.kind in "iu":
            parts.append(_int_field(col))
        elif col.dtype.kind == "f":
            parts.append(_float_field(col))
        else:
            raise TypeError(f"no CSV form for a {col.dtype} column")
        parts.append(np.full((n, 1), ord(","), np.uint8))
    parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
    matrix = np.concatenate(parts, axis=1)
    return matrix[matrix != 0].tobytes().decode("ascii")


def _csv_chunks(columns: dict, extras: dict):
    """Yield the CSV text: header, rows in blocks, then `# key = value` lines.

    Each cell is the repr of the Python int or float that `tolist()` gives,
    so floats are the shortest round-trip decimal form.  A block of rows is
    built in numpy: every column becomes a uint8 matrix of NUL-padded fields
    (digits by `divmod` for integers, `repr` for floats), the fields and the
    `,`/newline columns are concatenated, and dropping the NULs leaves the
    rows' text.
    """
    yield ",".join(columns) + "\n"
    cols = [np.asarray(col) for col in columns.values()]
    n_rows = len(cols[0]) if cols else 0
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        yield _csv_block([col[start:start + CSV_BLOCK_ROWS] for col in cols])
    for key, value in extras.items():
        yield f"# {key} = {'' if value is None else value}\n"


def _json_chunks(columns: dict, extras: dict, manifest: str):
    """Yield the JSON document in pieces, each column a block at a time.

    The pieces join to `json.dumps({"data": {**columns, **extras}, "manifest":
    ...}, sort_keys=True)` plus a newline, so only the memory use changes.
    """
    data = {**columns, **extras}
    yield '{"data": {'
    for i, key in enumerate(sorted(data)):
        yield (", " if i else "") + json.dumps(key) + ": "
        if key in extras:
            yield json.dumps(extras[key], sort_keys=True)
            continue
        yield "["
        col = np.asarray(columns[key])
        for start in range(0, len(col), CSV_BLOCK_ROWS):
            block = json.dumps(col[start:start + CSV_BLOCK_ROWS].tolist())[1:-1]
            yield (", " if start else "") + block
        yield "]"
    yield '}, "manifest": ' + manifest + "}\n"


def _emit(columns: dict, extras: dict, manifest: str, fmt: str,
          output: str | None) -> None:
    """Write one result table as CSV or JSON with its run manifest.

    `manifest` is the manifest's JSON text, written as given.  JSON embeds it
    next to `data` (columns and extras).  CSV puts it in a sidecar
    `<file>.manifest.json`, or on stderr when the rows go to stdout.  When a
    file write fails, each file this call opened that is a regular file, not
    a symlink or a device, is removed before the error is re-raised, so no
    partial output or output without its manifest is left.
    """
    if fmt == "json":
        chunks, sidecar = _json_chunks(columns, extras, manifest), None
    else:
        chunks, sidecar = _csv_chunks(columns, extras), manifest + "\n"
    if output is None:
        sys.stdout.writelines(chunks)
        if sidecar is not None:
            sys.stderr.write(sidecar)
        return
    path = _resolve_output(output)
    rows = side = None
    try:
        with open(path, "w", encoding="utf-8", newline="") as rows:
            rows.writelines(chunks)
        if sidecar is not None:
            with open(path + ".manifest.json", "w", encoding="utf-8") as side:
                side.write(sidecar)
    except OSError:
        # A name is bound only once its open succeeded.
        for fh in (rows, side):
            if fh and os.path.isfile(fh.name) and not os.path.islink(fh.name):
                os.remove(fh.name)
        raise


# --- subcommands --------------------------------------------------------------
#
# Each table command computes its result and returns (columns, extras): an
# ordered dict of equal-length columns and a dict of scalars, for _emit.
# calibrate prints its text report itself and returns None.


def _cmd_calibrate(args) -> None:
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    params = calibrate(cfg)
    bounds = rho_bounds(args.p)
    print(f"alpha   = {params.alpha}")
    print(f"alpha0  = {params.alpha0}")
    print(f"beta    = {params.beta}")
    print(f"log_z   = {params.log_z}")
    print(f"q       = {cfg.q}")
    print(f"rho_interval = ({bounds.lower}, {bounds.upper})")


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
                            help="Central correlation, strictly inside the "
                                 "admissible interval for p. Give a negative in "
                                 "exponent form as --rho=-1e-05.")
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
    pmf.set_defaults(func=_cmd_pmf)

    met = sub.add_parser("metrics", help="Emit VaR, mode, moments, peaks as JSON.")
    _add_model_flags(met)
    met.add_argument("--level", type=float, default=0.99,
                     help="VaR confidence level in (0,1) (default: %(default)s).")
    _add_output_flags(met, formats=("json",))
    met.set_defaults(func=_cmd_metrics)

    scan = sub.add_parser("scan", help="Sweep rho and emit per-point risk metrics.")
    _add_model_flags(scan, with_rho=False)
    scan.add_argument("--points", type=int, default=201,
                      help="Grid size, >= 3 (default: %(default)s).")
    scan.add_argument("--margin", type=float, default=1e-3,
                      help="Distance kept from each open rho bound (default: "
                           "%(default)s). Points are even, so few are negative at "
                           "small p: none at p = 1e-4 by default, 1 with 1e-6.")
    scan.add_argument("--level", type=float, default=0.99,
                      help="VaR confidence level (default: %(default)s).")
    scan.add_argument("--jump-threshold", type=int, default=10,
                      help="Adjacent mode changes larger than this, >= 0, are "
                           "reported as a discontinuity (default: %(default)s).")
    _add_output_flags(scan)
    scan.set_defaults(func=_cmd_scan)

    smp = sub.add_parser("sample", help="Draw (l0, loss) pairs with a seeded RNG.")
    _add_model_flags(smp)
    smp.add_argument("--count", type=int, required=True, help="Number of draws, >= 1.")
    smp.add_argument("--seed", type=int, default=0,
                     help="RNG seed; fully determines the stream "
                          "(default: %(default)s).")
    _add_output_flags(smp)
    smp.set_defaults(func=_cmd_sample, generator=GENERATOR_NAME)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = args.func(args)
        if table is not None:
            manifest = {
                "command": args.command,
                "parameters": {key: value for key, value in vars(args).items()
                               if key not in NOT_PARAMETERS},
                "seed": getattr(args, "seed", None),
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "tool_version": __version__,
            }
            _emit(*table, json.dumps(manifest, sort_keys=True), args.format,
                  args.output)
        sys.stdout.flush()
        return 0
    except (ValueError, MemoryError) as exc:
        # A MemoryError comes from an N or --count too large to allocate.
        code, message = 2, f"error: {exc}\n"
    except OSError as exc:
        code, message = 3, f"error: cannot write output: {exc}\n"
    # The interpreter flushes both streams again at exit, and a failure there
    # turns the exit status into 120.  So each is flushed here, stdout first
    # so that its rows precede the error line, and one that fails (a closed
    # pipe, a full device) is pointed at os.devnull.
    for stream, text in ((sys.stdout, ""), (sys.stderr, message)):
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code
