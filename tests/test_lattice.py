from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from flopwin.lattice import (
    GitPresentation,
    PresentationError,
    dominant_representative,
    invariant_line,
    is_quasi_symmetric,
    load_fixture,
    mat_apply,
    mat_identity,
    mat_inverse_transpose,
    mat_mul,
    pair,
    primitive,
    primitive_signed,
    weyl_invariant_basis,
)


@pytest.fixture(scope="module")
def flop() -> GitPresentation:
    return load_fixture("universal_flop_length2.json")


@pytest.fixture(scope="module")
def conifold() -> GitPresentation:
    return load_fixture("conifold.json")


def test_pair_is_the_dot_product():
    assert pair((1, -1), (2, 3)) == -1
    assert pair((0, 1), (5, 7)) == 7
    assert pair((Fraction(1, 2), 0), (4, 9)) == 2


def test_pair_rejects_length_mismatch():
    with pytest.raises(ValueError):
        pair((1, 2), (1,))


def test_primitive_vectors():
    assert primitive((2, -4)) == (1, -2)
    assert primitive((0, -6, 9)) == (0, -2, 3)
    assert primitive_signed((-2, 4)) == (1, -2)
    assert primitive_signed((0, -3)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))
    with pytest.raises(ValueError, match="zero vector has no primitive representative"):
        primitive_signed((0, 0))


def test_fixture_validation_round_trip(flop, conifold):
    assert flop.rank == 2
    assert sum(m for _, m in flop.weights) == 10
    assert conifold.rank == 1
    assert conifold.weights == (((1,), 2), ((-1,), 2))


def test_weyl_closure_is_checked():
    bad = {
        "rank": 2,
        "roots": [[1, -1], [-1, 1]],
        "weights": [{"vec": [1, 0], "mult": 1}],
        "weyl": [[[0, 1], [1, 0]]],
    }
    with pytest.raises(PresentationError):
        GitPresentation.from_dict(bad)


@pytest.mark.parametrize("generator,message", [
    ([[1, 1], [1, 1]], "singular Weyl generator"),
    ([[2, 0], [0, 1]], "not invertible over the integers"),
])
def test_non_unimodular_weyl_generator_is_rejected(generator, message):
    data = {
        "rank": 2,
        "weights": [{"vec": [1, 0]}, {"vec": [-1, 0]}],
        "weyl": [generator],
    }
    with pytest.raises(PresentationError, match=message):
        GitPresentation.from_dict(data)


def test_mat_inverse_transpose_preserves_the_pairing():
    vectors = [(1, 0), (0, 1), (2, -3)]
    for g in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]]):
        gstar = mat_inverse_transpose(g)
        for lam in vectors:
            for chi in vectors:
                assert pair(mat_apply(gstar, lam), mat_apply(g, chi)) == pair(lam, chi)
    assert mat_inverse_transpose([[-1]]) == ((-1,),)


def test_rank_three_is_rejected():
    with pytest.raises(PresentationError):
        GitPresentation.from_dict({"rank": 3, "weights": [{"vec": [1, 0, 0]}]})


def test_quasi_symmetry(flop, conifold):
    assert is_quasi_symmetric(flop)
    assert is_quasi_symmetric(conifold)


def test_quasi_symmetry_fails_for_unbalanced_line():
    p = GitPresentation.from_dict(
        {"rank": 1, "weights": [{"vec": [1], "mult": 2}, {"vec": [-1], "mult": 1}]}
    )
    assert not is_quasi_symmetric(p)


def test_invariant_basis(flop, conifold):
    assert weyl_invariant_basis(flop) == ((1, 1),)
    assert invariant_line(flop) == (1, 1)
    # trivial Weyl group fixes everything
    assert weyl_invariant_basis(conifold) == ((1,),)
    assert invariant_line(conifold) == (1,)


def test_invariant_basis_trivial_group_rank_two():
    p = GitPresentation.from_dict(
        {"rank": 2, "weights": [{"vec": [1, 0]}, {"vec": [-1, 0]}]}
    )
    assert weyl_invariant_basis(p) == ((1, 0), (0, 1))
    with pytest.raises(PresentationError):
        invariant_line(p)


def test_sign_flip_group_has_no_invariant_line():
    p = GitPresentation.from_dict(
        {
            "rank": 1,
            "weights": [{"vec": [1]}, {"vec": [-1]}],
            "weyl": [[[-1]]],
        }
    )
    assert weyl_invariant_basis(p) == ()


def _finite_order(g):
    # an integer 2x2 matrix of finite order has order 1, 2, 3, 4 or 6
    power = g
    for _ in range(6):
        if power == mat_identity(2):
            return True
        power = mat_mul(power, g)
    return False


# every 2x2 matrix with entries in {-1, 0, 1}, det +-1 and finite order
SMALL_FINITE_GENERATORS = [
    g for g in (((a, b), (c, d)) for a, b, c, d in product((-1, 0, 1), repeat=4))
    if g[0][0] * g[1][1] - g[0][1] * g[1][0] in (1, -1) and _finite_order(g)
]


def _rank_of_rows(rows):
    """Rank of integer rows of length 2: 0, 2 if some 2x2 minor is nonzero, else 1."""
    if all(x == 0 for row in rows for x in row):
        return 0
    minors = (r[0] * s[1] - r[1] * s[0] for r, s in combinations(rows, 2))
    return 2 if any(minors) else 1


def test_invariant_basis_against_brute_force():
    gens = SMALL_FINITE_GENERATORS
    sets = [(g,) for g in gens] + list(combinations(gens, 2))
    assert len(gens) > 10 and len(sets) > 100
    for weyl in sets:
        p = GitPresentation.from_dict({"rank": 2, "weights": [], "weyl": weyl})
        basis = weyl_invariant_basis(p)
        for v in basis:
            assert all(mat_apply(g, v) == v for g in weyl), (weyl, v)
            assert gcd(*v) == 1 and next(x for x in v if x) > 0, (weyl, v)
        stacked = [tuple(g[i][j] - (i == j) for j in range(2)) for g in weyl for i in range(2)]
        assert len(basis) == 2 - _rank_of_rows(stacked), weyl
        assert list(basis) == sorted(basis, reverse=True)
        assert _rank_of_rows(basis) == len(basis)


def orbit(p, chi):
    """Weyl orbit of a weight, sorted lexicographically."""
    return tuple(sorted({mat_apply(g, chi) for g in p.weyl_elements()}))


def test_dominant_representative(flop):
    assert dominant_representative(flop, (0, 1)) == (1, 0)
    assert orbit(flop, (0, 1)) == ((0, 1), (1, 0))
    assert dominant_representative(flop, (-1, 1)) == (1, -1)
    assert orbit(flop, (-1, 1)) == ((-1, 1), (1, -1))
    assert dominant_representative(flop, (0, 0)) == (0, 0)
    assert orbit(flop, (0, 0)) == ((0, 0),)


def test_dominant_representative_invariant_on_orbit(flop):
    for chi in [(2, -1), (-3, 5), (0, 4)]:
        rep = dominant_representative(flop, chi)
        assert rep == orbit(flop, chi)[-1]
        for other in orbit(flop, chi):
            assert dominant_representative(flop, other) == rep
            assert orbit(flop, other) == orbit(flop, chi)


def test_weyl_elements_group_order(flop, conifold):
    assert len(flop.weyl_elements()) == 2
    assert len(conifold.weyl_elements()) == 1


@pytest.mark.parametrize("data, message", [
    ({"rank": 2, "roots": [[1]], "weights": []}, r"root \(1,\) has wrong length"),
    ({"rank": 2, "weights": [{"vec": [1, 0, 0]}]}, r"weight \(1, 0, 0\) has wrong length"),
    # the swap fixes the weights but sends the roots (1, 0), (-1, 0) off themselves
    ({"rank": 2, "roots": [[1, 0], [-1, 0]], "weights": [{"vec": [1, 1]}, {"vec": [-1, -1]}],
      "weyl": [[[0, 1], [1, 0]]]}, "Weyl generator does not permute the roots"),
])
def test_presentation_shapes_are_checked(data, message):
    with pytest.raises(PresentationError, match=message):
        GitPresentation.from_dict(data)


def test_weyl_group_of_infinite_order_is_rejected():
    # a unimodular shear permutes an empty set of roots and weights, yet
    # generates an infinite group
    p = GitPresentation.from_dict({"rank": 2, "weights": [], "weyl": [[[1, 1], [0, 1]]]})
    with pytest.raises(PresentationError, match="do not generate a small finite group"):
        p.weyl_elements()
