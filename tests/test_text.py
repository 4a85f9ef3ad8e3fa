"""Tests of the CSV/JSON text writer: every cell is its `repr`, the float
kernel's words are exact, memory stays bounded, and the module stands alone."""

import ast
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dandelion_risk import ModelConfig, _text, loss_pmf
from dandelion_risk.oracle import BLOCK_ROWS

from conftest import traced_peak


def test_imports_nothing_of_the_package():
    # The writer needs no parser, model or sampler, so any table, not only a
    # CLI command's, can be written with it.
    imported = set()
    for node in ast.walk(ast.parse(Path(_text.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "functools", "json", "numpy"}, imported


INT64 = np.iinfo(np.int64)
# The cells a CLI column holds: int64 >= 0 and finite float64.  Signed zeros,
# the smallest subnormal, both sides of the switches to exponent notation
# below 0.0001 and at 1e+16, and reprs of the longest length, 24 characters.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 0.0001, -0.0001, 9.999999999999999e-05,
               math.nextafter(0.0001, 1.0), 1e-05, 9.999999999999999e-06, -1e-05,
               1e+16, 9999999999999998.0, math.nextafter(1e+16, math.inf), -1e+16,
               -1.2345678901234567e-300, 0.1, -1.0]
EDGE_INTS = [0, 1, 9, 10, INT64.max - 1, INT64.max]
CELLS = {
    "int": st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, INT64.max)),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(width=64, allow_nan=False, allow_infinity=False)),
}


def whole_columns(columns: dict, block_rows: int = BLOCK_ROWS) -> tuple:
    """A table's (names, blocks) over columns held whole, sliced into blocks
    of `block_rows` rows."""
    rows = len(next(iter(columns.values())))

    def blocks(names):
        for start in range(0, rows, block_rows):
            yield [columns[name][start:start + block_rows] for name in names]

    return tuple(columns), blocks


@st.composite
def csv_tables(draw):
    """Columns of int64 or float64 arrays or Python lists (as `scan` passes)."""
    n_rows = draw(st.integers(0, 10), label="n_rows")
    columns = {}
    for i, (kind, as_list) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(sorted(CELLS)), st.booleans()),
            min_size=1, max_size=4))):
        values = draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        columns[f"{kind}{i}"] = values if as_list else np.array(
            values, np.int64 if kind == "int" else np.float64)
    extras = draw(st.dictionaries(st.sampled_from(["rho_star", "jump_size"]),
                                  st.one_of(st.none(), st.integers(), st.floats())))
    return columns, extras


@settings(max_examples=300, deadline=None)
@given(table=csv_tables(), block_rows=st.integers(1, 4))
def test_csv_chunks_are_the_per_cell_repr(table, block_rows):
    columns, extras = table
    cells = [list(map(repr, np.asarray(col).tolist())) for col in columns.values()]
    expected = "".join(
        [",".join(columns) + "\n"]
        + [",".join(row) + "\n" for row in zip(*cells)]
        + [f"# {key} = {'' if value is None else value}\n"
           for key, value in extras.items()])
    values = {key: np.asarray(col).tolist() for key, col in columns.items()}
    expected_json = json.dumps({"data": {**values, **extras}, "manifest": {}},
                               sort_keys=True) + "\n"
    # Small blocks put the row count on either side of a block boundary.
    names, blocks = whole_columns(columns, block_rows)
    assert b"".join(_text._csv_chunks(names, blocks, extras)).decode() == expected
    assert b"".join(_text._json_chunks(names, blocks, extras, "{}")).decode() == expected_json


def test_csv_chunks_refuse_other_dtypes():
    # Only int64 >= 0 and finite float64 columns have a text form.
    for cells in ([True, False], [1.0, float("nan")], [float("inf"), 0.0],
                  [0.0, -float("inf")], [0, -1], [INT64.min, 5]):
        col = np.array(cells)
        table = whole_columns({"x": np.arange(len(cells)), "y": col})
        with pytest.raises(TypeError, match=str(col.dtype)):
            list(_text._csv_chunks(*table, {}))
        with pytest.raises(TypeError, match=str(col.dtype)):
            list(_text._json_chunks(*table, {}, "{}"))


def float_sets():
    """Named finite float64 arrays for the CSV float writer, all seeded."""
    rng = np.random.default_rng(20260)
    powers = np.array([2.0**k for k in range(-1074, 1024)]
                      + [float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    pmf = loss_pmf(ModelConfig(10**6, 0.5, 0.3))
    sets = {
        # Uniform bits: every finite exponent, both signs.
        "random_bits": rng.integers(0, 2**64, 500_000, np.uint64).view(np.float64),
        "powers_and_neighbours": np.concatenate([powers, -powers]),
        "subnormals": np.concatenate([
            np.arange(1, 4096, dtype=np.uint64),
            np.arange(2**52 - 4096, 2**52, dtype=np.uint64),
            rng.integers(1, 2**52, 20_000, np.uint64)]).view(np.float64),
        # Decimals of 1 to 6 digits, and halfway ties between two shortest
        # candidates (x.25 and x.75 at 2**49, where floats step by 1/8).
        "short_decimals": np.concatenate([
            rng.integers(1, 10**6, 50_000) * 10.0 ** rng.integers(-30, 30, 50_000),
            np.arange(2.0**49, 2.0**49 + 500, 0.25)]),
        "specials": np.array(EDGE_FLOATS),
        "pmf_mass": pmf.mass,
        "pmf_log_mass": pmf.log_mass,
    }
    return {name: values[np.isfinite(values)] for name, values in sets.items()}


def test_csv_float_cells_are_their_repr():
    # Deterministic counterpart of the hypothesis test above, over ~2.6e6
    # cells chosen where shortest round-trip printing is hard.
    for name, values in float_sets().items():
        got = b"".join(_text._csv_chunks(*whole_columns({"x": values}), {})).decode()
        expected = "x\n" + "\n".join(map(repr, values.tolist())) + "\n"
        if got != expected:
            mismatch = [(g, e) for g, e in zip(got.split(), expected.split())
                        if g != e]
            pytest.fail(f"{name}: {mismatch[:5]}")


U64 = np.uint64
M32, M63 = U64(2**32 - 1), U64(2**63 - 1)


def mul_words(a, b):
    """The high and low 64 bits of the 128-bit products of uint64 a and b."""
    a_hi, a_lo, b_hi, b_lo = a >> U64(32), a & M32, b >> U64(32), b & M32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> U64(32)) + (lh & M32) + (hl & M32)
    high = a_hi * b_hi + (lh >> U64(32)) + (hl >> U64(32)) + (mid >> U64(32))
    return high, (mid << U64(32)) | (ll & M32)


def three_products(col):
    """Schubfach's (vb, vbl, vbr) as three round-to-odd products, each of the
    multiplier g = g1 2^63 + g0 and its own scaled significand multiplied
    out, as the JDK's DoubleToDecimal forms them."""
    bits = col.view(U64)
    t = bits & U64(2**52 - 1)
    biased = (bits >> U64(52)).astype(np.int64) & 0x7FF
    c = np.where(biased > 0, t | U64(2**52), t)
    q = np.maximum(biased, 1) - 1075
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    g1, g0, r = (array[-k - _text._G_MIN] for array in _text._pow10_multipliers())
    h = (q + r + 2).astype(U64)
    assert 2 <= h.min() and h.max() <= 5

    def round_to_odd(cp):
        x1 = mul_words(g0, cp)[0]
        y1, y0 = mul_words(g1, cp)
        z = (y0 >> U64(1)) + x1
        return (y1 + (z >> U64(63))) | (((z & M63) + M63) >> U64(63))

    cb, odd = c << U64(2), c & U64(1)
    return (round_to_odd(cb << h),
            round_to_odd((cb - U64(2) + irregular.astype(U64)) << h) + odd,
            round_to_odd((cb + U64(2)) << h) - odd)


def test_interval_ends_are_the_three_products():
    # The kernel multiplies out g cp once and reaches g (cp +- 2^s) by adding
    # or subtracting g 2^s word by word; every word must be the product's.
    values = np.concatenate(list(float_sets().values()))
    values = values[values != 0]
    got = _text._scaled_interval(values)
    for name, g, want in zip(("vb", "vbl", "vbr"), got, three_products(values)):
        bad = np.flatnonzero(g != want)
        assert not bad.size, (name, values[bad[:5]])


def kernel_words(values, tables):
    """The words `_scaled_interval` hands `_round_to_odd` for v and for the
    upper and lower ends of its rounding interval, in that order, with the
    multiplier tables (g1, g0, r) in place of its own."""
    words = []

    def record(*args):
        words.append(args)
        return round_to_odd(*args)

    round_to_odd = _text._round_to_odd
    with mock.patch.object(_text, "_round_to_odd", record), \
            mock.patch.object(_text, "_pow10_multipliers", lambda: tables):
        _text._scaled_interval(values)
    return words


def exact_words(values, tables):
    """The same words from Python integers: for each scaled value w (cp, cp
    plus 2^(h+1), cp less 2^(h+1), or 2^h at an irregular spacing), the high
    word of g0 w and both words of g1 w; and each float's h."""
    bits = values.view(U64)
    t = bits & U64(2**52 - 1)
    biased = (bits >> U64(52)).astype(np.int64) & 0x7FF
    c = np.where(biased > 0, t | U64(2**52), t).astype(object)
    q = np.maximum(biased, 1) - 1075
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    g1, g0, r = (array[-k - _text._G_MIN] for array in tables)
    g1, g0, h = g1.astype(object), g0.astype(object), q + r + 2
    one = np.ones_like(c)  # Python ints, which do not wrap
    cp = c << (h + 2)
    words = []
    for w in (cp, cp + (one << (h + 1)), cp - (one << (h + 1 - irregular))):
        y = g1 * w
        words.append(tuple(np.array(word.tolist(), U64)
                           for word in (g0 * w >> 64, y & (2**64 - 1), y >> 64)))
    return words, h


@pytest.mark.parametrize("source", ["float_sets", "random_words"])
def test_interval_words_are_exact(source):
    # Deleting the low word's carry or borrow from any shifted sum changes a
    # word here, though it rarely changes the round-to-odd result that the
    # tests above read.  The real multipliers over the float sets, and
    # random 64-bit multiplier words over random floats at each h in 2..5.
    rng = np.random.default_rng(3131)
    if source == "float_sets":
        values = np.concatenate(list(float_sets().values()))
        values = [values[values != 0]]
        tables = [_text._pow10_multipliers()]
    else:
        values = [rng.integers(0, 2**64, 20_000, U64).view(np.float64) for _ in range(3)]
        values = [v[np.isfinite(v) & (v != 0)] for v in values]
        _, _, r = _text._pow10_multipliers()
        tables = [(rng.integers(0, 2**64, r.size, U64), rng.integers(0, 2**64, r.size, U64), r)
                  for _ in values]
    for col, table in zip(values, tables):
        want, hs = exact_words(col, table)
        assert set(hs.tolist()) == {2, 3, 4, 5}
        for name, got, end in zip(("vb", "vbr", "vbl"), kernel_words(col, table), want):
            for label, g, w in zip(("x1", "y0", "y1"), got, end):
                bad = np.flatnonzero(g != w)
                assert not bad.size, (name, label, col[bad[:5]])


@pytest.mark.parametrize("chunks", [
    pytest.param(lambda table: _text._csv_chunks(*table, {}), id="csv"),
    pytest.param(lambda table: _text._json_chunks(*table, {}, "{}"), id="json"),
])
def test_csv_chunks_memory_budget(chunks):
    # Consuming the CSV of the N = 10**6 pmf's columns held a traced peak of
    # 15.3 MB when each float cell was a 24-byte `repr` field in 65536-row
    # blocks.  With 16384-row blocks, each float column compacted once to its
    # non-zero cells and the text packed by bytes.translate, the CSV writer
    # peaks at 5.6 MB and the JSON writer, a column at a time, at 4.9 MB.
    pmf = loss_pmf(ModelConfig(10**6, 0.5, 0.3))
    table = whole_columns({"l": np.arange(pmf.n + 1), "mass": pmf.mass,
                           "log_mass": pmf.log_mass})

    def write():
        for _ in chunks(table):
            pass

    _text._csv_block([pmf.log_mass[:10]], b"\n")  # builds the tables
    assert traced_peak(write) <= 7.0e6
