"""Command-line front end: calibration, pmf evaluation, metrics, scans, sampling.

Emits plot-ready CSV or JSON, whose text `_text` writes.  The reported loss
excludes the central node, so pmf support is {0, ..., N}.  Every file output
is paired with a run manifest (embedded in JSON documents, sidecar
`<file>.manifest.json` next to CSV files, stderr when streaming CSV to
stdout).  The manifest records the subcommand, its `parameters` (every flag
of the subcommand except `--output` and `--seed`, plus the sampler's
generator), the seed, the tool version and a UTC timestamp; reruns with
identical flags produce byte-identical data payloads, with only manifest
timestamps differing.

Every check on a command's input runs before its output is opened.  `sample`
then draws its rows a block at a time as it writes them, so its memory does
not grow with `--count`; the other commands compute their result first.

Exit codes: 0 success, 2 argument or domain error (including an `--n` too
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
from ._text import _csv_chunks, _json_chunks
from .core_model import ModelConfig, calibrate, rho_bounds
from .distribution import loss_pmf
from .metrics import GridSpec, _check_level, risk_report, scan_rho
from .oracle import BLOCK_ROWS, GENERATOR_NAME, sampler

# Parsed attributes that are not run parameters: the subcommand and its
# handler, where the output goes, and the seed, a top-level manifest key.
NOT_PARAMETERS = frozenset({"command", "func", "output", "seed"})


def _emit(names: tuple, blocks, extras: dict, manifest: str, fmt: str,
          output: str | None) -> None:
    """Write one result table as CSV or JSON with its run manifest.

    The table is a command's (names, blocks, extras), in the cell format
    that `_text` states; its rows are computed as they are written.
    `manifest` is the manifest's JSON text, written as given.  JSON embeds it
    next to `data` (columns and extras).  CSV puts it in a sidecar
    `<file>.manifest.json`, or on stderr when the rows go to stdout.  The
    formatters yield bytes: a file takes them through a binary handle, and
    stdout, which may be any text stream, takes them decoded.  When writing a
    file fails or is interrupted, each file this call opened that is a
    regular file, not a symlink or a device, is removed before the error is
    re-raised, so no partial output or output without its manifest is left.
    """
    if fmt == "json":
        chunks, sidecar = _json_chunks(names, blocks, extras, manifest), None
    else:
        chunks, sidecar = _csv_chunks(names, blocks, extras), manifest + "\n"
    if output is None:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        if sidecar is not None:
            sys.stderr.write(sidecar)
        return
    rows = side = None
    try:
        with open(output, "wb") as rows:
            rows.writelines(chunks)
        if sidecar is not None:
            with open(output + ".manifest.json", "w", encoding="utf-8") as side:
                side.write(sidecar)
    except BaseException:
        # A name is bound only once its open succeeded.
        for fh in (rows, side):
            if fh and os.path.isfile(fh.name) and not os.path.islink(fh.name):
                os.remove(fh.name)
        raise


# --- subcommands --------------------------------------------------------------
#
# Each table command checks its input, computes what its rows need, and
# returns a table for _emit, (names, blocks, extras) as `_text` reads it.  A
# table's rows may be computed as they are written, so every check that can
# refuse the input runs before the command returns, and no output file is
# opened for input that is refused.  calibrate prints its text report itself
# and returns None.


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
    columns = {"mass": pmf.mass, "log_mass": pmf.log_mass}

    def blocks(names):
        for start in range(0, pmf.n + 1, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, pmf.n + 1)
            yield [np.arange(start, stop) if name == "l" else columns[name][start:stop]
                   for name in names]

    return ("l", "mass", "log_mass"), blocks, {}


def _cmd_metrics(args):
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    _check_level(args.level)
    return (), None, asdict(risk_report(loss_pmf(cfg), level=args.level))


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
    return (tuple(columns), lambda names: [[columns[name] for name in names]],
            {"rho_star": result.rho_star, "jump_size": result.jump_size})


def _cmd_sample(args):
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
    return ("draw_index", "l0", "loss"), sampler(cfg, args.count, args.seed), {}


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
                        help="Output file path; stdout when omitted.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dandelion-risk",
        description="Star-graph Ising credit-risk model: exact loss "
                    "distributions, risk metrics, correlation scans, and "
                    "sampling. The loss counts defaulted non-central credits "
                    "only (support 0..N).",
        epilog="Exit codes: 0 ok, 2 argument/domain error, 3 I/O error.",
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
        # A MemoryError comes from an N too large to allocate.
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
