"""The text of a result table: CSV or JSON, as bytes, a block of rows at a time.

A table is (names, blocks, extras): its column names in order; a function
that takes some of those names and yields row blocks, each a list of
equal-length columns in the order asked for; and a dict of scalars.  A
column, an array or a list, holds int64 >= 0 or finite float64; any other
raises TypeError, so no `nan` reaches JSON, which spells it `NaN`.  Each
cell is the `repr` of the int or float `tolist()` gives.
"""

from __future__ import annotations

import functools
import json

import numpy as np

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
    ended by `end`.

    Each column becomes a uint8 matrix of NUL-padded fields (integer digits
    by integer division, float digits from the Schubfach kernel's shortest
    decimal, laid out as `repr` lays them out), and dropping the NULs from
    them and the separator columns, concatenated, leaves the bytes."""
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
    values `_csv_block`'s `repr` cells, as `json.dumps` prints them.

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
