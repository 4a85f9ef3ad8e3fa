"""Command-line front end: calibration, pmf evaluation, metrics, scans, sampling.

Emits plot-ready CSV or JSON.  The reported loss excludes the central node,
so pmf support is {0, ..., N}.  Every file output is paired with a run
manifest (embedded in JSON documents, sidecar `<file>.manifest.json` next to
CSV files, stderr when streaming CSV to stdout).  The manifest records the
subcommand, its `parameters` (every flag of the subcommand except `--output`
and `--seed`, plus the sampler's generator), the seed, the tool version and a
UTC timestamp; reruns with identical flags produce byte-identical data
payloads, with only manifest timestamps differing.

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
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .core_model import ModelConfig, calibrate, rho_bounds
from .distribution import loss_pmf
from .metrics import GridSpec, risk_report, scan_rho
from .oracle import GENERATOR_NAME, sampler

OUTDIR_ENV = "DANDELION_RISK_OUTDIR"

# The rows of a table's block: its source computes them (pmf's `l`, sample's
# draws and index) or slices them this many at a time, and both writers format
# a block at once, so neither memory grows with the row count.  A block's byte
# matrix takes at most 44 bytes per float cell and 20 per int64 cell,
# separator included, and each uint64 temporary of the float kernel 128 KB.
# Writing the 10**6-row pmf peaks at 5.0 MB traced as CSV and 4.6 MB as JSON,
# and 10**6 draws at 1.0 MB as CSV; 65536-row blocks took 20.5 MB for the pmf
# as CSV and were slower.
CSV_BLOCK_ROWS = 16384

# Parsed attributes that are not run parameters: the subcommand and its
# handler, where the output goes, and the seed, a top-level manifest key.
NOT_PARAMETERS = frozenset({"command", "func", "output", "seed"})


def _resolve_output(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


# The float kernel's arithmetic is integer only, mostly uint64.  Its uint64
# constants are np.uint64 scalars, so no operation's type rests on how numpy
# promotes a Python int, which numpy 2.0 changed (NEP 50).
_ONE, _TEN, _64 = np.uint64(1), np.uint64(10), np.uint64(64)
_POW10 = np.array([10**j for j in range(20)], np.uint64)
_M32 = np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)
# The smallest and largest power of ten 10^e whose multiplier a float64 asks
# for: e = -k with k = floor(log10(2^q)), q in -1074..971.
_G_MIN, _G_MAX = -292, 324


def _ndigits(mag: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each uint64, 1 for zero."""
    return np.searchsorted(_POW10[1:], mag, "right") + 1


def _put_digits(field: np.ndarray, mag: np.ndarray, least) -> None:
    """Write each uint64 `mag` in decimal ASCII, right-aligned in the columns
    of the uint8 matrix `field`, with NULs left of its digits.

    Each row's digits run to its highest non-zero one or its `least`-th,
    whichever is further left: `least` is an int, or one count per row.
    `mag` must be below 10 ** (number of columns).
    """
    width = field.shape[1]
    floor = np.min(least)
    ten = _TEN
    for j in range(width):
        if j == max(width - 9, 0):
            # Below 10**9 from here on, and uint32 arithmetic is faster.
            mag, ten = mag.astype(np.uint32), np.uint32(10)
        # Division by a scalar takes numpy's fast path; np.divmod has none.
        rest = mag // ten
        char = (mag - rest * ten).astype(np.uint8)
        char += ord("0")
        if j >= floor:
            char *= (least > j) | (mag != 0)
        field[:, width - 1 - j] = char
        mag = rest


def _int_field(col: np.ndarray) -> np.ndarray:
    """Decimal digits of a non-negative int64 column, one NUL-padded row per
    cell."""
    mag = col.view(np.uint64)
    field = np.zeros((len(col), _ndigits(mag.max())), np.uint8)
    _put_digits(field, mag, 1)
    return field


@functools.cache
def _pow10_multipliers() -> tuple:
    """Schubfach's 126-bit multipliers g = floor(10^e 2^(125 - r)) + 1, with
    r = floor(log2(10^e)), for e in _G_MIN.._G_MAX, and r itself.

    g is returned as its top and bottom 63 bits, g = g1 2^63 + g0.
    """
    g1, g0, r = [], [], []
    for e in range(_G_MIN, _G_MAX + 1):
        p = 10**abs(e)
        if e >= 0:
            r.append(p.bit_length() - 1)
            shift = 125 - r[-1]
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            # 10^-|e| lies strictly between two powers of two.
            r.append(-p.bit_length())
            g = (1 << (125 - r[-1])) // p + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    table = (np.array(g1, np.uint64), np.array(g0, np.uint64), np.array(r, np.int64))
    for array in table:
        array.setflags(write=False)
    return table


def _mul_high(a, b_hi, b_lo):
    """The high 64 bits of the 128-bit products a*b, b given as 32-bit halves."""
    a_hi, a_lo = a >> np.uint64(32), a & _M32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> np.uint64(32)) + (lh & _M32) + (hl & _M32)
    high = a_hi * b_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32))
    return high + (mid >> np.uint64(32))


def _round_to_odd(x1, y0, y1):
    """rop(g cp 2^-127) from the words of the products g0 cp = x1 2^64 + x0
    and g1 cp = y1 2^64 + y0: the product's integer part, made odd if a
    fraction was cut off, read from the bits down to 2^-63, as Schubfach's
    proof for this table's scaling allows."""
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> np.uint64(63))) | (((z & _M63) + _M63) >> np.uint64(63))


def _scaled_interval(col: np.ndarray) -> tuple:
    """(vb, vbl, vbr, k) of each finite non-zero float v = c 2^q: v and the
    lower and upper ends of its rounding interval, times 4 10^-k and rounded
    to odd, with k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where the
    spacing below v is half the spacing above it.

    Schubfach forms each as a round-to-odd product of the 126-bit multiplier
    g = g1 2^63 + g0 of 10^-k and a 64-bit scaled value: cp = 4c 2^h for v,
    cp - 2^(h+1) (cp - 2^h at an irregular spacing) and cp + 2^(h+1) for the
    ends, with h = q + r + 2 in 2..5.  Only g0 cp and g1 cp are multiplied
    out here.  For each half, gi (cp +- 2^s) = gi cp +- gi 2^s, and gi 2^s
    has the high word gi >> (64 - s) and the low word gi << s; s lies in
    2..6, so both shift counts lie in 1..63, where a uint64 shift is
    defined.  Adding or subtracting these words, with the low word's carry
    or borrow, gives exactly the words of the JDK's three products, so its
    proof holds as it stands.
    """
    bits = col.view(np.uint64)
    t = bits & np.uint64(2**52 - 1)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    c = t | (biased > 0).astype(np.uint64) << np.uint64(52)
    q = np.maximum(biased, 1) - 1075
    # At a power of two above the smallest normal the spacing below the float
    # is half the spacing above it.
    irregular = (t == 0) & (biased > 1)
    # floor(log10(2^q)) and floor(log10(3/4 2^q)), exact for |q| < 5.4e6.
    k = (q * 661971961083 - irregular * np.int64(274743187321)) >> 41
    index = -_G_MIN - k
    g1, g0, r = (array.take(index) for array in _pow10_multipliers())
    h = (q + r + 2).astype(np.uint64)
    cp = c << (h + np.uint64(2))
    cp_hi, cp_lo = cp >> np.uint64(32), cp & _M32
    x1, x0 = _mul_high(g0, cp_hi, cp_lo), g0 * cp
    y1, y0 = _mul_high(g1, cp_hi, cp_lo), g1 * cp
    vb = _round_to_odd(x1, y0, y1)
    # An odd significand's rounding interval excludes its ends.
    odd = c & _ONE
    s = h + _ONE
    lo0, lo1 = g0 << s, g1 << s
    y0r = y0 + lo1
    vbr = _round_to_odd(x1 + (g0 >> (_64 - s)) + (x0 + lo0 < lo0), y0r,
                        y1 + (g1 >> (_64 - s)) + (y0r < lo1)) - odd
    s -= irregular
    lo0, lo1 = g0 << s, g1 << s
    vbl = _round_to_odd(x1 - (g0 >> (_64 - s)) - (x0 < lo0), y0 - lo1,
                        y1 - (g1 >> (_64 - s)) - (y0 < lo1)) + odd
    return vb, vbl, vbr, k


def _shortest_decimal(col: np.ndarray) -> tuple:
    """Digits d, with no trailing zero, and exponent e of each finite non-zero
    float's shortest round-trip decimal d 10^e, the one nearest the float,
    ties to even d.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), as
    in the JDK's DoubleToDecimal without its two-digit minimum: of the
    rounding interval's decimals at the scale 10^k, k = floor(log10(2^q)),
    and at 10^(k+1), where at most one fits, take the coarser if one fits.
    The float and its interval's ends come scaled by `_scaled_interval`.
    """
    vb, vbl, vbr, e = _scaled_interval(col)
    s = vb >> np.uint64(2)
    s10 = s // _TEN
    s40 = s10 * np.uint64(40)
    up = vbl <= s40
    coarse = up != (s40 + np.uint64(40) <= vbr)
    s4 = s << np.uint64(2)
    lower_in = vbl <= s4
    upper_in = s4 + np.uint64(4) <= vbr
    # vb lies above s4 + 2, the midpoint, or on it with s odd.
    nearer_upper = (vb & np.uint64(3)) + (s & _ONE) > np.uint64(2)
    # The selects are arithmetic: np.where is slow on masks without a pattern.
    d = s + (nearer_upper ^ ((lower_in ^ upper_in) & (upper_in ^ nearer_upper)))
    d += coarse * (s10 + ~up - d)
    e += coarse
    # Few digits end in 0: one pass over all finds those that do, and only
    # they go round the loop.
    rest = d // _TEN
    at = np.flatnonzero(rest * _TEN == d)
    digits, power = rest[at], e[at] + 1
    while True:
        rest = digits // _TEN
        zero = rest * _TEN == digits
        if not zero.any():
            d[at], e[at] = digits, power
            return d, e
        digits = np.where(zero, rest, digits)
        power += zero


_ZERO_TEXT = np.frombuffer(b"0.0", np.uint8)


def _float_field(col: np.ndarray) -> np.ndarray:
    """Python's repr of each finite float64, one NUL-padded row per cell.

    The fields are sign | integer digits | `.` | fraction digits | `e`, sign
    and at least two exponent digits, the last only in a block where some
    cell takes it.  As in `repr`, the digits are the shortest that
    round-trip, nearest the float; a float whose decimal point falls more
    than 16 digits right or 4 left of its first digit takes exponent form;
    a positional integer ends in `.0`.  Only the non-zero cells are
    computed; zeros of either sign, most of a wide pmf's `mass` column, take
    the constant.
    """
    live = np.flatnonzero(col)
    sign = np.signbit(col) * np.uint8(ord("-"))
    if not live.size:
        return np.column_stack([sign, np.broadcast_to(_ZERO_TEXT, (len(col), 3))])
    dense = live.size == len(col)
    digits, exp10 = _shortest_decimal(col if dense else col[live])
    n = _ndigits(digits)
    # The digits read 0.d1d2...dn 10^point.
    point = exp10 + n
    positional = (point > -4) & (point <= 16)
    point = np.where(positional, point, 1)
    frac = n - point
    # Up to 20 fraction digits, but digits < 10^17, so 10^19 splits as well.
    scale = _POW10[np.clip(frac, 0, 19)]
    whole = digits // scale
    fraction = digits - whole * scale
    whole *= _POW10[np.maximum(-frac, 0)]
    frac = np.maximum(frac, positional).astype(np.uint8)
    wi, wf = _ndigits(whole.max()), frac.max()
    exponent = np.flatnonzero(~positional)
    if exponent.size:
        power = exp10[exponent] + n[exponent] - 1
        mag = np.abs(power).astype(np.uint64)
        we = 2 + max(_ndigits(mag.max()), 2)
    else:
        we = 0
    text = np.zeros((len(digits), 2 + wi + wf + we), np.uint8)
    _put_digits(text[:, 1:1 + wi], whole, 1)
    text[frac > 0, 1 + wi] = ord(".")
    _put_digits(text[:, 2 + wi:2 + wi + wf], fraction, frac)
    if we:
        tail = np.zeros((exponent.size, we), np.uint8)
        tail[:, 0] = ord("e")
        tail[:, 1] = np.where(power < 0, ord("-"), ord("+"))
        _put_digits(tail[:, 2:], mag, 2)
        text[exponent, 2 + wi + wf:] = tail
    if dense:
        field = text  # no zero cell, so no copy
    else:
        field = np.zeros((len(col), text.shape[1]), np.uint8)
        field[:, 1:4] = _ZERO_TEXT
        field[live] = text
    field[:, 0] = sign
    return field


def _csv_block(cols: list, end: bytes) -> bytes:
    """The ASCII rows of equal-length columns, cells joined by `,`, rows
    ended by `end`, each cell the repr of the int or float `tolist()` gives.

    A column is int64 with no cell below zero, or float64 with every cell
    finite; any other raises TypeError.  Each column becomes a uint8 matrix
    of NUL-padded fields (integer digits by integer division, float digits
    from the Schubfach kernel's shortest decimal, laid out as `repr` lays
    them out), and dropping the NULs from them and the separator columns,
    concatenated, leaves the bytes.  A column may be given as a list."""
    n = len(cols[0])
    parts = []
    for col in map(np.asarray, cols):
        if col.dtype == np.int64 and (col >= 0).all():
            parts.append(_int_field(col))
        elif col.dtype == np.float64 and np.isfinite(col).all():
            parts.append(_float_field(col))
        else:
            raise TypeError(f"no text form for a {col.dtype} column: only int64 >= 0 "
                            "and finite float64 have one")
        parts.append(np.full((n, 1), ord(","), np.uint8))
    parts[-1] = np.tile(np.frombuffer(end, np.uint8), (n, 1))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _csv_chunks(names: tuple, blocks, extras: dict):
    """Yield the CSV bytes: header, one `_csv_block` per row block of
    `blocks(names)`, then `# key = value` lines."""
    yield (",".join(names) + "\n").encode()
    for cols in blocks(names):
        yield _csv_block(cols, b"\n")
    for key, value in extras.items():
        yield f"# {key} = {'' if value is None else value}\n".encode()


def _json_chunks(names: tuple, blocks, extras: dict, manifest: str):
    """Yield `json.dumps({"data": {**columns, **extras}, "manifest": ...},
    sort_keys=True)` and a newline as bytes, a column a block at a time, its
    values `_csv_block`'s `repr` cells, as `json.dumps` prints them.  Those
    are the cells of int64 >= 0 and finite float64 columns; `_csv_block`
    refuses any other, so no `nan` reaches JSON, which spells it `NaN`.

    The keys are sorted, so each column is a pass of its own over
    `blocks((key,))`, and a table asked for one column computes only that.
    """
    yield b'{"data": {'
    for i, key in enumerate(sorted({*names, *extras})):
        yield ((", " if i else "") + json.dumps(key) + ": ").encode()
        if key in extras:
            yield json.dumps(extras[key], sort_keys=True).encode()
            continue
        text = b"["  # one block behind, so the last one's `, ` can be cut
        for cols in blocks((key,)):
            yield text
            text = _csv_block(cols, b", ")
        yield text.removesuffix(b", ") + b"]"
    yield ('}, "manifest": ' + manifest + "}\n").encode()


def _emit(names: tuple, blocks, extras: dict, manifest: str, fmt: str,
          output: str | None) -> None:
    """Write one result table as CSV or JSON with its run manifest.

    The table is a command's (names, blocks, extras), as described under
    "subcommands" below; its rows are computed as they are written.
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
    path = _resolve_output(output)
    rows = side = None
    try:
        with open(path, "wb") as rows:
            rows.writelines(chunks)
        if sidecar is not None:
            with open(path + ".manifest.json", "w", encoding="utf-8") as side:
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
# returns (names, blocks, extras) for _emit: its column names in order, a
# function that takes some of those names and yields row blocks, each a list
# of equal-length columns in the order asked for, and a dict of scalars.  A
# table's rows may be computed as they are written, so every check that can
# refuse the input runs before the command returns, and no output file is
# opened for input that is refused.  calibrate prints its text report itself
# and returns None.


def _row_ranges(rows: int):
    """(start, stop) of each block of CSV_BLOCK_ROWS rows, the last shorter."""
    for start in range(0, rows, CSV_BLOCK_ROWS):
        yield start, min(start + CSV_BLOCK_ROWS, rows)


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
        for start, stop in _row_ranges(pmf.n + 1):
            yield [np.arange(start, stop) if name == "l" else columns[name][start:stop]
                   for name in names]

    return ("l", "mass", "log_mass"), blocks, {}


def _cmd_metrics(args):
    cfg = ModelConfig(n_credits=args.n, p=args.p, rho=args.rho)
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
    draws = sampler(cfg, args.count, args.seed)

    def blocks(names):
        # draw_index alone draws nothing, and l0 alone no loss.
        drawn = (draws(CSV_BLOCK_ROWS, losses="loss" in names)
                 if {"l0", "loss"} & set(names) else itertools.repeat((None, None)))
        for (start, stop), (l0, loss) in zip(_row_ranges(args.count), drawn):
            cells = {"draw_index": np.arange(start, stop), "l0": l0, "loss": loss}
            yield [cells[name] for name in names]

    return ("draw_index", "l0", "loss"), blocks, {}


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
