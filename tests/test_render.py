"""The CLI's array renderer against the per-value rules of
``tests/oracles.py``: every element of an array of arbitrary floats prints
as the oracle prints it alone, record blocks are laid out as
``json.dumps(..., indent=2)`` lays out the same records, and tables and
the decomposition CSV as the row-at-a-time oracles lay them out."""

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
    _Records,
    _decomposition_csv,
    _g6,
    _g6_rows,
    _ints,
    _json,
    _json6,
    _table,
)
from gapower.decompose import CSV_COLUMNS

from oracles import csv_brute, fmt6_brute, json6_brute, table_brute

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

# The edges of each text form ``_json6`` tells apart: an exponent from
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
    assert _g6(a) == [fmt6_brute(x) for x in xs]
    assert _json6(a) == [json6_brute(x) for x in xs]


@given(st.integers(1, 4).flatmap(lambda k: st.one_of(
    st.lists(st.lists(values, min_size=k, max_size=k), max_size=20),
    long_rows(k, -(-cli._KERNEL_CUT // k)))))
def test_row_template_matches_per_value_rules(rows):
    k = len(rows[0]) if rows else 1
    a = np.array(rows, dtype=np.float64).reshape(-1, k)
    want = "".join(",".join(map(fmt6_brute, r)) + "\n" for r in rows)
    assert _g6_rows(a, ",".join(["%.6g"] * k) + "\n") == want


def edges_at_pass_ends(k: int, seed: int) -> np.ndarray:
    """Three kernel passes of rows of ``k`` background floats, with every
    edge value and tie, and their negatives, at both ends of each pass."""
    edges = EDGES + TEXT_FORM_EDGES + TIES
    edges += [-x for x in edges]
    step = cli._PASS // k * k  # values per pass
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
    assert _g6_rows(a, ",".join(["%.6g"] * k) + "\n") == want
    if k == 1:
        assert _json6(a) == [json6_brute(x) for x in a.ravel().tolist()]


def test_rows_split_across_calls_print_the_same(monkeypatch):
    a = edges_at_pass_ends(3, 3)[:700]
    row = "%.6g,%.6g,%.6g\n"
    whole = _g6_rows(a, row)
    assert whole == "".join(",".join(map(fmt6_brute, r)) + "\n" for r in a.tolist())
    for pass_size in (1, 7, 500):  # a pass takes one row at least
        monkeypatch.setattr(cli, "_PASS", pass_size)
        assert _g6_rows(a, row) == whole


def zero_heavy(n: int, share: float, pass_size: int, seed: int) -> np.ndarray:
    """``n`` background floats, about ``share`` of them zeros of either
    sign, and a zero at both ends of every kernel pass of ``pass_size``
    values."""
    a = background(n, seed)
    rng = np.random.default_rng(seed)
    a[rng.random(n) < share] = 0.0
    a[rng.random(n) < share / 2] = -0.0
    starts = np.arange(0, n, pass_size)
    a[starts], a[np.minimum(starts + pass_size, n) - 1] = 0.0, -0.0
    return a


@example(2 * cli._PASS + 3, 0.9, cli._PASS, 5)
@given(st.integers(cli._KERNEL_CUT, 3000), st.floats(0.5, 1.0),
       st.integers(64, 1024), st.integers(0, 2**32 - 1))
def test_zero_heavy_arrays_match_per_value_rules(n, share, pass_size, seed):
    a = zero_heavy(n, share, pass_size, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PASS", pass_size)
        g6, json6 = _g6(a), _json6(a)
    xs = a.tolist()
    assert g6 == [fmt6_brute(x) for x in xs]
    assert json6 == [json6_brute(x) for x in xs]


@pytest.mark.parametrize("x", TEXT_FORM_EDGES + [-x for x in TEXT_FORM_EDGES])
def test_json_text_forms_at_their_edges(x):
    assert _json6([x]) == [json6_brute(x)]
    assert _json6(np.array([x, 0.5, x])) == [json6_brute(x), "0.5", json6_brute(x)]


# The edges of the mask with which ``_json6`` lets a ``%.6g`` text through
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
    assert _json6(np.array(xs)) == [json6_brute(x) for x in xs]


@given(st.integers(-10**6, 10**6), st.floats(-9.99, 9.99), st.integers(1, 14))
def test_json_mask_near_integers_matches_per_value_rule(n, m, e):
    xs = [n + m * 10.0 ** -e, n - m * 10.0 ** -e, n * (1 + m * 10.0 ** -e)]
    assert _json6(np.array(xs)) == [json6_brute(x) for x in xs]


def test_non_finite_values_print_as_before():
    a = np.array([math.inf, -math.inf, math.nan])
    assert _json6(a) == ["Infinity", "-Infinity", "NaN"]
    assert _g6(a) == ["inf", "-inf", "nan"]


def test_json_numbers_are_the_repr_of_the_rounded_value():
    assert _json6([123456789.0, -0.0, 1.0, 2.5e-7, 4.9e-324, 1e6, 1e16]) == [
        "123457000.0", "0.0", "1.0", "2.5e-07", "5e-324", "1000000.0", "1e+16"]


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), values),
                max_size=12),
       values)
def test_record_block_is_laid_out_like_json_dumps(rows, x):
    block = _Records(
        {"blade_indices": [_SLOT, _SLOT], "va %": _SLOT},
        (
            (np.array([a for a, _, _ in rows], dtype=np.intp), _ints),
            (np.array([b for _, b, _ in rows], dtype=np.intp), _ints),
            (np.array([v for _, _, v in rows]), _json6),
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
    assert "".join(_json(doc)) == json.dumps(want, indent=2)


# One value of each form JSON spells differently from ``%.6g``: integral,
# e+06 to e+15, subnormal, non-finite.
MISFITS = [100.0, -7.0, 0.0, 1.23456789e8, -9.99999e14, 5e-324, -1e-310,
           math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("step", [1, 3, 4096])
def test_json_misfits_on_both_sides_of_a_chunk_boundary(monkeypatch, step):
    # 4096 puts every chunk but the last through the number kernel
    monkeypatch.setattr(cli, "_RECORDS_PER_CHUNK", step)
    boundary = -(-len(MISFITS) // step) * step  # the first at or past len(MISFITS)
    a = background(3 * boundary + 1, 5)
    for k in (boundary, 2 * boundary):
        a[k - len(MISFITS):k + len(MISFITS)] = MISFITS + MISFITS[::-1]
    block = _Records({"n": _SLOT, "va": _SLOT}, ((np.arange(len(a)), _ints), (a, _json6)))
    want = [{"n": n, "va": json.loads(json6_brute(x))} for n, x in enumerate(a.tolist())]
    assert "".join(_json({"terms": block})) == json.dumps({"terms": want}, indent=2)


# Table cells: empty, or short texts that hold what a ``%`` template or a
# CSV join could misread.
cells = st.one_of(st.just(""), st.text(alphabet="ab1 -.%,\"", max_size=6))


# the Spectra table's dc row ends in empty cells
@example((["order", "u_rms", "u_phase"], [["dc", "1"], ["12", "230"], ["", "0.3"]]))
@example((["a", "b"], [[], []]))
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(cells, min_size=k, max_size=k),
    st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(cells, min_size=n, max_size=n), min_size=k, max_size=k)),
)))
def test_table_is_laid_out_like_the_oracle(drawn):
    header, columns = drawn
    want = table_brute("A %s title", header, columns)
    assert _table("A %s title", header, columns) == want


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
    assert "".join(_decomposition_csv(_Rows(rows))) == want
