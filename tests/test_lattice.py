from __future__ import annotations

from fractions import Fraction

import pytest

from flopwin.lattice import (
    GitPresentation,
    PresentationError,
    dominant_representative,
    invariant_line,
    is_quasi_symmetric,
    load_fixture,
    mat_apply,
    mat_inverse_transpose,
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
    assert primitive((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
    assert primitive_signed((-2, 4)) == (1, -2)
    assert primitive_signed((0, -3)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_fixture_validation_round_trip(flop, conifold):
    assert flop.rank == 2
    assert len(flop.weight_multiset()) == 10
    assert conifold.rank == 1
    assert conifold.weight_multiset() == [(1,), (1,), (-1,), (-1,)]


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


def test_dominant_representative(flop):
    rep, orbit = dominant_representative(flop, (0, 1))
    assert rep == (1, 0)
    assert orbit == ((0, 1), (1, 0))
    rep, orbit = dominant_representative(flop, (-1, 1))
    assert rep == (1, -1)
    assert orbit == ((-1, 1), (1, -1))
    rep, orbit = dominant_representative(flop, (0, 0))
    assert rep == (0, 0)
    assert orbit == ((0, 0),)


def test_dominant_representative_invariant_on_orbit(flop):
    for chi in [(2, -1), (-3, 5), (0, 4)]:
        rep, orbit = dominant_representative(flop, chi)
        for other in orbit:
            rep2, orbit2 = dominant_representative(flop, other)
            assert rep2 == rep
            assert orbit2 == orbit


def test_weyl_elements_group_order(flop, conifold):
    assert len(flop.weyl_elements()) == 2
    assert len(conifold.weyl_elements()) == 1
