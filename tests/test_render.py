"""The CLI's block renderer against the per-value rules of
``tests/oracles.py``: every element of a column of arbitrary floats
prints as the oracle prints it alone, record blocks are laid out as
``json.dumps(..., indent=2)`` lays out the same records, and tables and
the decomposition CSV as the row-at-a-time oracles lay them out, whatever
the number of rows per chunk."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapower import cli
from gapower.cli import (
    _SLOT,
    _Column,
    _Records,
    _chunks,
    _csv,
    _decomposition_csv,
    _json,
    _layout,
    _table,
)
from gapower.decompose import CSV_COLUMNS

from conftest import text_of
from oracles import csv_brute, fmt6_brute, json6_brute, table_brute
from test_golden import CASES, HASHED, run_case, write_inputs


def rows(cells, json: bool = False) -> str:
    """The text of the block of rows ``cells``, laid out a chunk at a
    time."""
    return text_of(map(_layout, _chunks(cells, json)))


def texts(column, json: bool = False) -> list[str]:
    """The text of every entry of ``column`` as the renderer lays out a
    block of one column per row."""
    return rows([[column, b"\n"]], json=json).split("\n")[:-1]


def g6(values) -> list[str]:
    return texts(np.asarray(values, dtype=np.float64))


def json6(values) -> list[str]:
    return texts(np.asarray(values, dtype=np.float64), json=True)


def csv_rows(a) -> str:
    """The rows of the 2-D float array ``a`` as the renderer lays out a
    CSV block of its columns."""
    return rows([_csv(list(np.asarray(a).T))])


# Values at the edges of the format: signed zeros, non-finite values,
# subnormals, the extremes of the range and 6-digit rounding ties.
EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, -1e-308,
    1e308, -1e308, 1.7976931348623157e308,
    999999.5, -999999.5, 1.0000005, 0.0001234565, 9999995.0, 123456.5,
    0.5, 1e-5, 1e16, 123456789.0,
]
values = st.one_of(st.floats(), st.sampled_from(EDGES))

# The edges of each text form ``_numbers`` tells apart: an exponent from
# e+06 to e+15 (spelled out), one at e-308 and below (subnormals, where
# repr can be shorter than 6 digits: 1e-318 prints as 9.99999e-319), an
# integral fixed value (".0" appended), a non-finite value, and the
# neighbours of each that print their ``%.6g`` text unchanged.
TEXT_FORM_EDGES = [
    999999.5, 999999.4, 1e6, 9.999995e15, 9.999994e15, 1e16,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-308, 1e-307,
    1e-318, 4.9e-324,
    0.0, -0.0, 1.0, -100.0, 123456.4, 123456.6,
    math.inf, -math.inf, math.nan,
]


# 6-digit rounding ties, which the kernel leaves to ``%``, and their
# neighbours just off the tie.  The float nearest 5.600225e-12 lies above
# its tie and that of 6.690435e-12 below, but both scale to the tie
# itself, where rint rounds to even.
TIES = [123456.5, 1.0000005, 999999.5, 9.999995e-5, 0.0001234565,
        5.600225e-12, 6.690435e-12, 123456.50000001, 1.00000049999]


def background(n: int, seed: int) -> np.ndarray:
    """``n`` seeded floats, in turn: normals over 10^-300..10^300 and over
    10^-8..10^8, integers and halves."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, n)
    a[1::4] = rng.normal(size=len(a[1::4])) * 10.0 ** rng.uniform(-8, 8, len(a[1::4]))
    a[2::4] = rng.integers(-10**7, 10**7, len(a[2::4]))
    a[3::4] = rng.integers(-10**7, 10**7, len(a[3::4])) / 2
    return a


def spread(drawn: list[float], n: int, seed: int) -> list[float]:
    """The drawn values at seeded places among ``n`` background floats."""
    a = background(n, seed)
    a[np.random.default_rng(seed).permutation(n)[:len(drawn)]] = drawn
    return a.tolist()


def long_lists(size: int):
    """Lists of ``size`` to 3 ``size`` floats, as many as the kernel
    formats: drawn values spread over a seeded background."""
    return st.builds(spread, st.lists(values, max_size=60),
                     st.integers(size, 3 * size), st.integers(0, 2**32 - 1))


def long_rows(k: int, rows: int):
    """Lists of ``rows`` to about 3 ``rows`` rows of ``k`` floats, as
    ``long_lists`` draws them."""
    return long_lists(k * rows).map(
        lambda xs: np.reshape(xs[:len(xs) // k * k], (-1, k)).tolist())


@given(st.one_of(st.lists(values, max_size=60), long_lists(cli._KERNEL_CUT)))
def test_array_text_matches_per_value_rules(xs):
    a = np.array(xs, dtype=np.float64)
    assert g6(a) == [fmt6_brute(x) for x in xs]
    assert json6(a) == [json6_brute(x) for x in xs]


@given(st.integers(1, 4).flatmap(lambda k: st.one_of(
    st.lists(st.lists(values, min_size=k, max_size=k), max_size=20),
    long_rows(k, -(-cli._KERNEL_CUT // k)))))
def test_row_template_matches_per_value_rules(rows):
    k = len(rows[0]) if rows else 1
    a = np.array(rows, dtype=np.float64).reshape(-1, k)
    want = "".join(",".join(map(fmt6_brute, r)) + "\n" for r in rows)
    assert csv_rows(a) == want


def edges_at_pass_ends(k: int, seed: int) -> np.ndarray:
    """Three chunks of rows of ``k`` background floats, with every edge
    value and tie, and their negatives, at both ends of each chunk."""
    edges = EDGES + TEXT_FORM_EDGES + TIES
    edges += [-x for x in edges]
    step = cli._CHUNK * k  # values per chunk
    a = background(3 * step, seed)
    ends = range(0, len(a) + 1, step)
    for end in ends[1:]:
        a[end - len(edges):end] = edges
    for start in ends[:-1]:
        a[start:start + len(edges)] = edges
    return a.reshape(-1, k)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_edges_at_both_ends_of_a_kernel_pass(k):
    a = edges_at_pass_ends(k, 17)
    want = "".join(",".join(map(fmt6_brute, r)) + "\n" for r in a.tolist())
    assert csv_rows(a) == want
    if k == 1:
        assert json6(a.ravel()) == [json6_brute(x) for x in a.ravel().tolist()]


def test_rows_split_across_calls_print_the_same(monkeypatch):
    a = edges_at_pass_ends(3, 3)[:700]
    whole = csv_rows(a)
    assert whole == "".join(",".join(map(fmt6_brute, r)) + "\n" for r in a.tolist())
    monkeypatch.setattr(cli, "_KERNEL_CUT", 1)  # every chunk through the kernel
    for chunk in (1, 7, 500):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert csv_rows(a) == whole


def zero_heavy(n: int, share: float, pass_size: int, seed: int) -> np.ndarray:
    """``n`` background floats, about ``share`` of them zeros of either
    sign, and a zero at both ends of every chunk of ``pass_size``
    values."""
    a = background(n, seed)
    rng = np.random.default_rng(seed)
    a[rng.random(n) < share] = 0.0
    a[rng.random(n) < share / 2] = -0.0
    starts = np.arange(0, n, pass_size)
    a[starts], a[np.minimum(starts + pass_size, n) - 1] = 0.0, -0.0
    return a


@example(2 * cli._CHUNK + 3, 0.9, cli._CHUNK, 5)
@given(st.integers(cli._KERNEL_CUT, 3000), st.floats(0.5, 1.0),
       st.integers(64, 1024), st.integers(0, 2**32 - 1))
def test_zero_heavy_arrays_match_per_value_rules(n, share, pass_size, seed):
    a = zero_heavy(n, share, pass_size, seed)
    with pytest.MonkeyPatch.context() as patch:
        # every chunk, however short, through the number kernel
        patch.setattr(cli, "_CHUNK", pass_size)
        patch.setattr(cli, "_KERNEL_CUT", 1)
        got_g6, got_json6 = g6(a), json6(a)
    xs = a.tolist()
    assert got_g6 == [fmt6_brute(x) for x in xs]
    assert got_json6 == [json6_brute(x) for x in xs]


@pytest.mark.parametrize("x", TEXT_FORM_EDGES + [-x for x in TEXT_FORM_EDGES])
def test_json_text_forms_at_their_edges(x):
    assert json6([x]) == [json6_brute(x)]
    assert json6([x, 0.5, x]) == [json6_brute(x), "0.5", json6_brute(x)]


# The edges of the mask with which ``_numbers`` lets a ``%.6g`` text through
# unchecked: its cut at 99999, the last fixed text (99999.95 prints as
# 100000 and 999999.5 as 1e+06), its floor at 1e-300, and the 6-digit
# ties that round up to an integer.
MASK_EDGES = [99999.0, 99999.95, 999999.5, 1e-300, 0.9999995, 4.9999995]
# Relative offsets from an integer on both sides of 5e-6, where a 6-digit
# text of 1.x stops rounding to the integer, up to the mask's 1e-5.
NEAR_INTEGERS = [n * (1 + r) for n in (1, 5, 9, 99, 12345, 99998)
                 for r in (1e-6, 4e-6, 4.99e-6, 5e-6, 5.01e-6, 9.9e-6, 1e-5)]


def beside(x: float, ulps: int = 3) -> list[float]:
    """``x`` and its nearest ``ulps`` floats on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@pytest.mark.parametrize("edge", MASK_EDGES + NEAR_INTEGERS)
def test_json_mask_edges_match_per_value_rule(edge):
    xs = [y for x in beside(edge) for y in (x, -x)]
    # also a rounding step of the 6th digit to either side
    step = 10.0 ** (math.floor(math.log10(edge)) - 5)
    xs += [edge + k * step / 2 for k in (-2, -1, 1, 2)]
    assert json6(xs) == [json6_brute(x) for x in xs]


@given(st.integers(-10**6, 10**6), st.floats(-9.99, 9.99), st.integers(1, 14))
def test_json_mask_near_integers_matches_per_value_rule(n, m, e):
    xs = [n + m * 10.0 ** -e, n - m * 10.0 ** -e, n * (1 + m * 10.0 ** -e)]
    assert json6(xs) == [json6_brute(x) for x in xs]


def test_non_finite_values_print_as_before():
    a = np.array([math.inf, -math.inf, math.nan])
    assert json6(a) == ["Infinity", "-Infinity", "NaN"]
    assert g6(a) == ["inf", "-inf", "nan"]


def test_json_numbers_are_the_repr_of_the_rounded_value():
    assert json6([123456789.0, -0.0, 1.0, 2.5e-7, 4.9e-324, 1e6, 1e16]) == [
        "123457000.0", "0.0", "1.0", "2.5e-07", "5e-324", "1000000.0", "1e+16"]


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), values),
                max_size=12),
       values)
def test_record_block_is_laid_out_like_json_dumps(rows, x):
    block = _Records(
        {"blade_indices": [_SLOT, _SLOT], "va %": _SLOT},
        (
            np.array([a for a, _, _ in rows], dtype=np.intp),
            np.array([b for _, b, _ in rows], dtype=np.intp),
            np.array([v for _, _, v in rows], dtype=np.float64),
        ),
    )
    doc = {"power": {"x": x, "n": 3, "s": "a%sb", "none": None, "terms": block},
           "empty": {}}
    rounded = [json.loads(json6_brute(v)) for _, _, v in rows]
    want = {
        "power": {
            "x": json.loads(json6_brute(x)), "n": 3, "s": "a%sb", "none": None,
            "terms": [{"blade_indices": [a, b], "va %": r}
                      for (a, b, _), r in zip(rows, rounded)],
        },
        "empty": {},
    }
    assert text_of(_json(doc)) == json.dumps(want, indent=2)


# One value of each form JSON spells differently from ``%.6g``: integral,
# e+06 to e+15, subnormal, non-finite.
MISFITS = [100.0, -7.0, 0.0, 1.23456789e8, -9.99999e14, 5e-324, -1e-310,
           math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("step", [1, 3, 4096])
def test_json_misfits_on_both_sides_of_a_chunk_boundary(monkeypatch, step):
    # 4096 puts every chunk but the last through the number kernel
    monkeypatch.setattr(cli, "_CHUNK", step)
    boundary = -(-len(MISFITS) // step) * step  # the first at or past len(MISFITS)
    a = background(3 * boundary + 1, 5)
    for k in (boundary, 2 * boundary):
        a[k - len(MISFITS):k + len(MISFITS)] = MISFITS + MISFITS[::-1]
    block = _Records({"n": _SLOT, "va": _SLOT}, (np.arange(len(a)), a))
    want = [{"n": n, "va": json.loads(json6_brute(x))} for n, x in enumerate(a.tolist())]
    assert text_of(_json({"terms": block})) == json.dumps({"terms": want}, indent=2)


# Table cells: empty, or short texts that hold what a ``%`` template or a
# CSV join could misread.
cells = st.one_of(st.just(""), st.text(alphabet="ab1 -.%,\"", max_size=6))


def table_column(n: int):
    """A table column of ``n`` rows as ``(prefix, values, whole, shown,
    instead, suffix)``: numbers (an order column's if ``whole``) between
    two constant texts, like the cross-term blade cell's "s" and " s",
    each entry where ``shown`` is False printed as ``instead``, like the
    Spectra table's ``dc`` row and missing phases."""
    def column(whole: bool):
        numbers = st.one_of(st.sampled_from(WHOLES), st.integers(0, 2**21 + 1).map(float))
        return st.tuples(cells, st.lists(numbers if whole else values, min_size=n, max_size=n),
                         st.just(whole), st.lists(st.booleans(), min_size=n, max_size=n),
                         cells, cells)

    return st.booleans().flatmap(column)


# the Spectra table's dc row: its order a masked entry, its last cell empty
@example((["order", "u_rms", "u_phase"],
          [("", [0.0, 12.0], True, [False, True], "dc", ""),
           ("", [1.0, 230.0], False, [True, True], "", ""),
           ("", [math.nan, 0.3], False, [False, True], "", "")]))
@example((["a", "b"], [("", [], False, [], "", "")] * 2))
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(cells, min_size=k, max_size=k),
    st.integers(0, 6).flatmap(lambda n: st.lists(table_column(n), min_size=k, max_size=k)),
)))
def test_table_is_laid_out_like_the_oracle(drawn):
    header, columns = drawn

    def entry(x: float, shown: bool, whole: bool, instead: str) -> str:
        return (whole_text(x, False) if whole else fmt6_brute(x)) if shown else instead

    want = table_brute("A %s title", header, [
        [prefix + entry(x, s, whole, instead) + suffix for x, s in zip(xs, shown)]
        for prefix, xs, whole, shown, instead, suffix in columns])
    # one block: each cell a constant, a column and a constant
    block = [[prefix.encode(), _Column(np.array(xs, dtype=np.float64), whole,
                                       np.array(shown, bool), instead.encode()),
              suffix.encode()]
             for prefix, xs, whole, shown, instead, suffix in columns]
    assert text_of(_table("A %s title", header, block)) == want


class _Rows:
    """Stands in for a ``CurrentComponents``: the CSV reads only its
    ``table_rows``."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.float64).reshape(-1, len(CSV_COLUMNS))

    def table_rows(self):
        return self.rows


@given(st.one_of(
    st.lists(st.lists(values, min_size=6, max_size=6), min_size=1, max_size=12),
    long_rows(6, cli._KERNEL_CUT)))
def test_decomposition_csv_is_laid_out_like_the_oracle(rows):
    index = [str(k) for k in range(len(rows) - 1)] + ["norm"]
    want = csv_brute(
        ["index", *CSV_COLUMNS],
        [[k, *map(fmt6_brute, r)] for k, r in zip(index, rows)],
    )
    assert text_of(_decomposition_csv(_Rows(rows))) == want


def whole_text(x: float, json: bool) -> str:
    """An order's text: an integral one as an integer, else its number."""
    if float(x).is_integer():
        return str(int(x))
    return json6_brute(x) if json else fmt6_brute(x)


# Integers on both sides of 10**6, where ``%.6g`` switches to an exponent,
# up to the largest blade index (2 * 2**20 + 1), and fractional orders
# near the largest order (2**20)
WHOLES = [0.0, 7.0, 999999.0, 1e6, 1000001.0, 2.0**20, 2.0**21 + 1,
          999999.5, 2.0**20 - 0.5, 0.25, 12.5]


@pytest.mark.parametrize("n", [1, cli._KERNEL_CUT])
def test_whole_columns_print_integers_as_integers(n):
    xs = (WHOLES * n)[:max(n, len(WHOLES))]
    column = _Column(np.array(xs), whole=True)
    for json in (False, True):
        assert texts(column, json=json) == [whole_text(x, json) for x in xs]
    ints = np.array([x for x in xs if x.is_integer()], dtype=np.intp)
    assert texts(ints, json=True) == [str(k) for k in ints.tolist()]


@pytest.mark.parametrize("step", [1, 3, 4096])
def test_table_is_the_same_on_both_sides_of_a_chunk_boundary(monkeypatch, step):
    # 4096 puts every chunk but the last through the number kernel; the
    # widest text lies in the last row only, and every third row of the
    # last column is empty, so those rows lose their trailing spaces
    monkeypatch.setattr(cli, "_CHUNK", step)
    boundary = -(-len(MISFITS) // step) * step  # the first at or past len(MISFITS)
    n = 3 * boundary + 1
    a = background(n, 7)
    for k in (boundary, 2 * boundary):
        a[k - len(MISFITS):k + len(MISFITS)] = MISFITS + MISFITS[::-1]
    a[-1] = -1.7976931348623157e308
    shown = np.arange(n) % 3 != 1
    # integral orders up to 2**21 and halves on both sides of 10**6
    index = np.arange(n)
    orders = np.where(index % 2, index * 65537.0 % 2**21, index * 0.5 % 20 + 999990)
    cells = [[index], [_Column(orders, whole=True)], [a], [_Column(-a, shown=shown)]]
    want = table_brute(
        "T", ["k", "order", "a", "b"],
        [[str(k) for k in range(n)],
         [whole_text(x, False) for x in orders.tolist()],
         [fmt6_brute(x) for x in a.tolist()],
         [fmt6_brute(-x) if s else "" for x, s in zip(a.tolist(), shown)]],
    )
    assert text_of(_table("T", ["k", "order", "a", "b"], cells)) == want


def test_every_golden_chunk_is_ascii(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    chunks = []

    def spy(out_chunks, out):
        out_chunks = list(out_chunks)
        chunks.extend(out_chunks)
        write_text(out_chunks, out)

    write_text = cli._write_text
    monkeypatch.setattr(cli, "_write_text", spy)
    for name, argv in {**CASES, **HASHED}.items():
        run_case(tmp_path, argv, name)
    assert chunks
    assert all(isinstance(c, bytes) and c.isascii() for c in chunks)
