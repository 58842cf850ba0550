from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from flopwin.exact import _integer_echelon, echelon, rational, rational_json


def random_matrix(rng, n_rows, n_cols):
    # a third of the rows are combinations of earlier ones, so kernels occur
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.34:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-3, 3)) for _ in range(n_cols)])
    return rows


def transpose(rows, n_cols):
    return [[row[j] for row in rows] for j in range(n_cols)]


def kernel_of_rows(rows):
    """Null tails of [rows | identity]: the left kernel of the row matrix."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    return echelon(aug, width=width)


@pytest.mark.parametrize("seed", range(40))
def test_echelon_kernel_rank_and_transpose(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(0, 6), rng.randint(0, 6)
    rows = random_matrix(rng, n_rows, n_cols)
    pivot_rows, pivots, tails = kernel_of_rows(rows)
    # every null tail annihilates the matrix from the left
    for combo in tails:
        assert len(combo) == n_rows
        assert any(c != 0 for c in combo)
        for j in range(n_cols):
            assert sum(c * row[j] for c, row in zip(combo, rows)) == 0
    # pivots are distinct and each pivot row leads with 1 at its pivot
    assert len(set(pivots)) == len(pivots)
    for prow, pcol in zip(pivot_rows, pivots):
        assert prow[pcol] == 1 and all(x == 0 for x in prow[:pcol])
    # rank + nullity = number of rows; row rank = column rank
    assert len(pivots) + len(tails) == n_rows
    assert len(echelon(rows)[1]) == len(pivots)
    assert len(echelon(transpose(rows, n_cols))[1]) == len(pivots)


def dense_fraction_echelon(rows, width=None):
    """Plain Fraction elimination, kept as the reference for echelon."""
    pivot_rows, pivots, null_tails = [], [], []
    for row in rows:
        row = list(row)
        w = len(row) if width is None else width
        for prow, pcol in zip(pivot_rows, pivots):
            if row[pcol] != 0:
                factor = row[pcol]
                row = [a - factor * b for a, b in zip(row, prow)]
        lead = next((j for j in range(w) if row[j] != 0), None)
        if lead is None:
            null_tails.append(row[w:])
            continue
        inv = row[lead]
        pivot_rows.append([a / inv for a in row])
        pivots.append(lead)
    return pivot_rows, pivots, null_tails


def wide_random_matrix(rng, n_rows, n_cols):
    """Sparse-ish rows with entries up to 10^6 over denominators up to 12,
    some all-zero rows and some rational combinations of earlier rows."""
    rows = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.1:
            rows.append([Fraction(0)] * n_cols)
        elif rows and roll < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-7, 7), rng.randint(1, 12))
            rows.append([x - c * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 12))
                         if rng.random() < 0.5 else Fraction(0) for _ in range(n_cols)])
    return rows


@pytest.mark.parametrize("batch", range(10))
def test_echelon_equals_dense_fraction_elimination(batch):
    for seed in range(60 * batch, 60 * (batch + 1)):
        rng = random.Random(f"echelon/{seed}")
        n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
        rows = wide_random_matrix(rng, n_rows, n_cols)
        aug = [row + [Fraction(int(i == j)) for j in range(n_rows)]
               for i, row in enumerate(rows)]
        width = rng.randint(0, n_cols)
        for args in ((rows, None), (rows, width), (aug, n_cols)):
            got = echelon(*args)
            assert got == dense_fraction_echelon(*args)
            assert all(type(x) is Fraction for part in (got[0], got[2])
                       for row in part for x in row)


@pytest.mark.parametrize("batch", range(4))
def test_integer_core_rows_are_primitive_multiples_of_echelon_rows(batch):
    for seed in range(60 * batch, 60 * (batch + 1)):
        rng = random.Random(f"integer-echelon/{seed}")
        n_rows, n_cols = rng.randint(0, 9), rng.randint(1, 9)
        rows = wide_random_matrix(rng, n_rows, n_cols)
        width = rng.choice((None, rng.randint(0, n_cols)))
        pivot_rows, pivots, null_tails = dense_fraction_echelon(rows, width)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        out = list(_integer_echelon(sparse, width))
        assert len(out) == n_rows
        kept = [(vec, lead) for vec, lead, scale in out if lead is not None]
        assert [lead for _, lead in kept] == pivots
        for (vec, lead), frow in zip(kept, pivot_rows):
            assert all(type(v) is int and v for v in vec.values())
            assert math.gcd(*vec.values()) == 1
            assert [Fraction(vec.get(j, 0), vec[lead]) for j in range(n_cols)] == frow
        w = n_cols if width is None else width
        nulls = [(vec, scale) for vec, lead, scale in out if lead is None]
        assert [[Fraction(vec.get(j, 0) * scale[1], scale[0]) for j in range(w, n_cols)]
                for vec, scale in nulls] == null_tails


def test_echelon_takes_int_zeros_and_returns_fractions():
    rows = [[0, Fraction(2, 3), 1], [0, 0, 0], [Fraction(1, 2), 0, Fraction(-3)]]
    got = echelon(rows, width=2)
    assert got == dense_fraction_echelon([[Fraction(x) for x in row] for row in rows], 2)
    assert all(type(x) is Fraction for part in (got[0], got[2]) for row in part for x in row)


def test_echelon_defaults_to_full_width():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(3)]]
    pivot_rows, pivots, tails = echelon(rows)
    assert pivots == [0, 1]
    assert pivot_rows == [[1, 2], [0, 1]]
    assert tails == [[]]
    assert echelon([]) == ([], [], [])


@pytest.mark.parametrize("value,expected", [
    (0, Fraction(0)),
    (-7, Fraction(-7)),
    (Fraction(3, 4), Fraction(3, 4)),
    ("-3/6", Fraction(-1, 2)),
    ("5", Fraction(5)),
    (0.5, Fraction(1, 2)),
    (-1.25, Fraction(-5, 4)),
])
def test_rational_reads_exactly(value, expected):
    got = rational(value)
    assert isinstance(got, Fraction) and got == expected


@pytest.mark.parametrize("value,json_form", [
    (3, 3),
    (-12, -12),
    ("-3/6", "-1/2"),
    ("-7/3", "-7/3"),
    ("4/2", 2),
    (0.75, "3/4"),
    (-2.0, -2),
])
def test_rational_json_round_trip(value, json_form):
    out = rational_json(rational(value))
    assert out == json_form
    assert rational(out) == rational(value)


def test_rational_json_recurses_through_nested_sequences():
    m = ((Fraction(1, 2), Fraction(2)), [Fraction(0), Fraction(-3, 9)])
    assert rational_json(m) == [["1/2", 2], [0, "-1/3"]]


@pytest.mark.parametrize("value", [True, False, None, [1], {"p": 1}])
def test_rational_rejects_non_numbers(value):
    with pytest.raises(TypeError):
        rational(value)


@pytest.mark.parametrize("value", ["1/0", "-3/0", "abc", "", "1/2/3", "nan", float("inf"),
                                   "1e9999999", "1e99999999", "-2E-4301", "1e4_301"])
def test_rational_rejects_zero_denominators_and_junk(value):
    with pytest.raises(ValueError):
        rational(value)


def test_rational_reads_decimal_exponents_up_to_the_limit_exactly():
    assert rational("1e300") == 10**300
    assert rational_json(rational("1e300")) == 10**300
    assert rational("-2.5E-3") == Fraction(-1, 400)
    assert rational("1e4300") == 10**4300
    assert rational("3e-4300") == Fraction(3, 10**4300)


def test_record_fields_are_all_required_once():
    from flopwin.windows import FaceRef

    assert FaceRef(j=2, kind="D") == FaceRef("D", 2)
    for args, kwargs in (((), {}), (("C",), {}), (("C", 1, 2), {}), (("C",), {"kind": "D"}),
                         (("C", 1), {"extra": 0})):
        with pytest.raises(TypeError):
            FaceRef(*args, **kwargs)
