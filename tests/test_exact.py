from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flopwin.exact import echelon, rational, rational_json


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


@pytest.mark.parametrize("value", ["1/0", "-3/0", "abc", "", "1/2/3", "nan", float("inf")])
def test_rational_rejects_zero_denominators_and_junk(value):
    with pytest.raises(ValueError):
        rational(value)
