from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from flopwin.exact import combine, echelon, laurent_mul, rational, rational_json


def random_matrix(rng, n_rows, n_cols):
    # a third of the rows are combinations of earlier ones, so kernels occur
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.34:
            a, b = rng.choice(rows), rng.choice(rows)
            s, c = rng.randint(1, 3), rng.randint(-3, 3)
            rows.append([s * x + c * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(n_cols)])
    return rows


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def transpose(rows, n_cols):
    return [[row[j] for row in rows] for j in range(n_cols)]


def rank(rows):
    return sum(lead is not None for _, lead in echelon(sparse(rows)))


@pytest.mark.parametrize("seed", range(40))
def test_echelon_kernel_rank_and_transpose(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(0, 6), rng.randint(0, 6)
    rows = random_matrix(rng, n_rows, n_cols)
    aug = [row + [int(i == j) for j in range(n_rows)] for i, row in enumerate(rows)]
    out = list(echelon(sparse(aug), n_cols))
    assert len(out) == n_rows
    pivots = [lead for _, lead in out if lead is not None]
    tails = [[vec.get(n_cols + i, 0) for i in range(n_rows)] for vec, lead in out if lead is None]
    # every null tail is a nonzero int vector annihilating the matrix from the left
    for combo in tails:
        assert all(type(c) is int for c in combo)
        assert any(c != 0 for c in combo)
        for j in range(n_cols):
            assert sum(c * row[j] for c, row in zip(combo, rows)) == 0
    # pivots are distinct and each pivot row is zero before its pivot
    assert len(set(pivots)) == len(pivots)
    for vec, lead in out:
        if lead is not None:
            assert vec[lead] != 0 and all(j >= lead for j in vec)
    # rank + nullity = number of rows; row rank = column rank
    assert len(pivots) + len(tails) == n_rows
    assert rank(rows) == len(pivots)
    assert rank(transpose(rows, n_cols)) == len(pivots)


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


def is_multiple(got, ref):
    """True when the int row got is a nonzero rational multiple of the row ref."""
    k = next((j for j, x in enumerate(ref) if x), None)
    if k is None:
        return not any(got)
    c = Fraction(got[k]) / ref[k]
    return c != 0 and all(g == c * r for g, r in zip(got, ref))


@pytest.mark.parametrize("batch", range(10))
def test_integer_core_rows_are_primitive_multiples_of_echelon_rows(batch):
    for seed in range(60 * batch, 60 * (batch + 1)):
        rng = random.Random(f"integer-echelon/{seed}")
        n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
        rows = wide_random_matrix(rng, n_rows, n_cols)
        # Fraction rows augmented with int units: echelon takes both types
        aug = [row + [int(i == j) for j in range(n_rows)] for i, row in enumerate(rows)]
        for mat, width in ((rows, None), (rows, rng.randint(0, n_cols)), (aug, n_cols)):
            n = len(mat[0]) if mat else 0
            w = n if width is None else width
            pivot_rows, pivots, null_tails = dense_fraction_echelon(mat, width)
            out = list(echelon(sparse(mat), width))
            assert len(out) == len(mat)
            kept = [vec for vec, lead in out if lead is not None]
            assert [lead for _, lead in out if lead is not None] == pivots
            # pivot rows: primitive integer multiples of the reference rows
            for vec, frow in zip(kept, pivot_rows):
                assert all(type(v) is int and v for v in vec.values())
                assert math.gcd(*vec.values()) == 1
                assert is_multiple([vec.get(j, 0) for j in range(n)], frow)
            # null rows: integer tails, nonzero multiples of the reference tails
            nulls = [vec for vec, lead in out if lead is None]
            assert len(nulls) == len(null_tails)
            for vec, tail in zip(nulls, null_tails):
                assert all(type(v) is int and v for v in vec.values())
                assert is_multiple([vec.get(j, 0) for j in range(w, n)], tail)


def discovery_order_echelon(rows, width=None):
    """echelon with each row reduced against the pivot rows in the order they
    were found, kept as the reference for the column-order clearing."""
    int_rows, pivots, out = [], [], []
    for row in rows:
        den = math.lcm(1, *(Fraction(x).denominator for x in row.values()))
        vec = {j: int(x * den) for j, x in row.items()}
        for prow, pcol in zip(int_rows, pivots):
            c = vec.get(pcol)
            if c is None:
                continue
            g = math.gcd(prow[pcol], c)
            a, b = prow[pcol] // g, c // g
            if a < 0:
                a, b = -a, -b
            vec = combine([(a, vec), (-b, prow)])
        lead = min((j for j in vec if width is None or j < width), default=None)
        if lead is not None:
            g = math.gcd(*vec.values())
            vec = {j: v // g for j, v in vec.items()}
            int_rows.append(vec)
            pivots.append(lead)
        out.append((vec, lead))
    return out


def staircase_matrix(rng, n_rows, n_cols):
    """A permuted staircase: rows leading at shuffled columns with dense tails,
    so later rows lead at earlier columns and clearing one pivot column fills
    later ones; then rational combinations of the rows, which reduce through
    long chains of pivots."""
    leads = sorted(rng.sample(range(n_cols), min(n_rows, n_cols)))
    rows = [[Fraction(0)] * lead + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))]
            + [Fraction(rng.randint(-4, 4)) for _ in range(n_cols - lead - 1)] for lead in leads]
    rng.shuffle(rows)
    for _ in range(n_rows - len(rows)):
        row = [Fraction(0)] * n_cols
        for other in rng.sample(rows, rng.randint(1, len(rows))):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            row = [x + c * y for x, y in zip(row, other)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("batch", range(6))
def test_column_order_clearing_on_permuted_staircases(batch):
    longest = 0
    for seed in range(40 * batch, 40 * (batch + 1)):
        rng = random.Random(f"staircase/{seed}")
        n_cols = rng.randint(1, 14)
        n_rows = rng.randint(1, 2 * n_cols)
        rows = staircase_matrix(rng, n_rows, n_cols)
        aug = [row + [int(i == j) for j in range(n_rows)] for i, row in enumerate(rows)]
        for mat, width in ((rows, None), (rows, rng.randint(0, n_cols)), (aug, n_cols)):
            n = len(mat[0])
            w = n if width is None else width
            pivot_rows, pivots, null_tails = dense_fraction_echelon(mat, width)
            out = list(echelon(sparse(mat), width))
            reference = discovery_order_echelon(sparse(mat), width)
            assert [lead for _, lead in out] == [lead for _, lead in reference]
            assert [lead for _, lead in out if lead is not None] == pivots
            kept = [vec for vec, lead in out if lead is not None]
            for vec, frow in zip(kept, pivot_rows):
                assert all(type(v) is int and v for v in vec.values())
                assert math.gcd(*vec.values()) == 1
                assert is_multiple([vec.get(j, 0) for j in range(n)], frow)
            # pivot rows are the ones discovery-order clearing finds, null
            # rows a positive multiple of its rows
            for (vec, lead), (ref, _) in zip(out, reference):
                if lead is not None:
                    assert vec == ref
                else:
                    k = min(ref, default=None)
                    assert (k is None and not vec) or (
                        vec[k] * ref[k] > 0 and is_multiple(
                            [vec.get(j, 0) for j in range(n)], [ref.get(j, 0) for j in range(n)]))
            nulls = [vec for vec, lead in out if lead is None]
            assert len(nulls) == len(null_tails)
            for vec, tail in zip(nulls, null_tails):
                assert all(type(v) is int and v for v in vec.values())
                assert is_multiple([vec.get(j, 0) for j in range(w, n)], tail)
        longest = max(longest, len(pivots))
    assert longest >= 8


def test_clearing_refills_a_pivot_column_and_reverses_the_discovery_order():
    # clearing column 0 of the last row creates an entry at pivot column 1,
    # which is then cleared in turn
    rows = [{0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}, {0: 1, 2: 1, 4: 1}]
    assert list(echelon(rows)) == discovery_order_echelon(rows) == [
        ({0: 1, 1: 2, 3: 1}, 0), ({1: 1, 2: 1}, 1), ({2: 3, 3: -1, 4: 1}, 2)]
    # pivots found at columns 2, 1, 0: the last row is cleared at 0, 1, 2,
    # the reverse of the order the pivots were found in
    rows = [{2: 1, 3: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}]
    assert list(echelon(rows)) == discovery_order_echelon(rows) == [
        ({2: 1, 3: 1}, 2), ({1: 1, 3: -1}, 1), ({0: 1, 3: 1}, 0), ({4: 1}, 4)]


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
                                   "1e9999999", "1e99999999", "-2E-4301", "1e4_301",
                                   "1e", "one"])
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


def test_combine_drops_cancelled_keys():
    a = {(1, 0): 2, (0, 1): 1}
    b = {(1, 0): 1, (0, 0): 3}
    assert combine([(1, a), (-2, b)]) == {(0, 1): 1, (0, 0): -6}
    assert combine([(1, a), (-1, a)]) == {}
    assert combine([(0, a)]) == {}


def test_combine_keeps_coefficient_types():
    ints = combine([(1, {"x": 2}), (-3, {"x": 1, "y": 4})])
    assert ints == {"x": -1, "y": -12}
    assert all(type(c) is int for c in ints.values())
    fractions = combine([(1, {"x": Fraction(1, 2)}), (-1, {"y": Fraction(3)})])
    assert fractions == {"x": Fraction(1, 2), "y": Fraction(-3)}
    assert all(type(c) is Fraction for c in fractions.values())
    assert combine([]) == {}


@pytest.mark.parametrize("seed", range(5))
def test_laurent_mul_matches_double_loop_on_three_variables(seed):
    rng = random.Random(seed)

    def poly():
        return {tuple(rng.randint(-2, 2) for _ in range(3)): rng.choice([-2, -1, 1, 3])
                for _ in range(rng.randint(0, 8))}

    a, b = poly(), poly()
    expected = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            expected[key] = expected.get(key, 0) + ca * cb
    assert laurent_mul(a, b) == {k: c for k, c in expected.items() if c}
    assert laurent_mul(a, b) == laurent_mul(b, a)
    # x1 - x2 times x1 + x2 cancels the mixed terms
    assert laurent_mul({(1, 0, 0): 1, (0, 1, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1}) == {
        (2, 0, 0): 1, (0, 2, 0): -1}
