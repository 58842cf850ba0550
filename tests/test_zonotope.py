from __future__ import annotations

from fractions import Fraction

import pytest

from flopwin.lattice import GitPresentation, load_fixture, mat_inverse_transpose, mat_apply, pair
from flopwin.zonotope import (
    UnboundedPolytopeError,
    eta,
    nabla,
    polytope_from_constraints,
    skms,
)

HEX_VERTICES = {
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
}


@pytest.fixture(scope="module")
def flop():
    return load_fixture("universal_flop_length2.json")


@pytest.fixture(scope="module")
def conifold():
    return load_fixture("conifold.json")


def test_eta_values(flop, conifold):
    assert eta(flop, (1, 0)) == 2
    assert eta(flop, (0, 1)) == 2
    assert eta(flop, (1, 1)) == 2
    assert eta(flop, (1, -1)) == 4
    assert eta(flop, (-1, -1)) == 2
    assert eta(conifold, (1,)) == 2
    assert eta(conifold, (-1,)) == 2


def test_eta_closed_form_on_a_grid(flop):
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert eta(flop, (m, n)) == abs(m) + abs(n) + abs(m - n)


def test_eta_positive_homogeneity(flop):
    for lam in [(1, 0), (2, -3), (-1, -1), (0, 5)]:
        for k in range(0, 5):
            assert eta(flop, tuple(k * c for c in lam)) == k * eta(flop, lam)


def test_eta_weyl_invariance(flop):
    for g in flop.weyl:
        gstar = mat_inverse_transpose(g)
        for lam in [(1, 0), (2, -3), (-1, -1), (4, 1)]:
            assert eta(flop, mat_apply(gstar, lam)) == eta(flop, lam)


def test_hexagon_h_rep(flop):
    z = nabla(flop)
    hs = {(n, b) for n, b in z.halfspaces}
    expected = {
        ((1, 0), Fraction(1)),
        ((-1, 0), Fraction(1)),
        ((0, 1), Fraction(1)),
        ((0, -1), Fraction(1)),
        ((1, 1), Fraction(1)),
        ((-1, -1), Fraction(1)),
    }
    assert hs == expected


def test_hexagon_vertices(flop):
    z = nabla(flop)
    assert set(z.vertices) == HEX_VERTICES
    assert {(-x, -y) for x, y in z.vertices} == HEX_VERTICES


def test_every_constraint_is_a_facet(flop):
    z = nabla(flop)
    assert len(z.facets()) == len(z.halfspaces) == 6
    for n, b, sat in z.facets():
        assert len(sat) == 2


def test_conifold_interval(conifold):
    z = nabla(conifold)
    assert set(z.vertices) == {(Fraction(-1),), (Fraction(1),)}
    assert set(z.halfspaces) == {((1,), Fraction(1)), ((-1,), Fraction(1))}


def test_brute_force_candidate_oracle(flop, conifold):
    # the polytope cut by every primitive |lam| <= 8 equals the fan-ray one:
    # the fan-ray H-rep is a sub-multiset of the candidate constraints, and
    # every candidate constraint is satisfied at all computed vertices, so the
    # two intersections coincide
    for p in (flop, conifold):
        z = nabla(p)
        if p.rank == 1:
            cands = [(k,) for k in range(-8, 9) if k != 0]
        else:
            cands = [
                (a, b)
                for a in range(-8, 9)
                for b in range(-8, 9)
                if (a, b) != (0, 0)
            ]
        for n, b in z.halfspaces:
            assert n in cands and 2 * b == eta(p, n)
        for lam in cands:
            bound = Fraction(eta(p, lam), 2)
            assert all(pair(lam, v) <= bound for v in z.vertices)


def test_small_candidate_enumeration_agrees(flop):
    z = nabla(flop)
    cands = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    constraints = [(lam, Fraction(eta(flop, lam), 2)) for lam in cands]
    oracle = polytope_from_constraints(2, constraints)
    assert set(oracle.vertices) == set(z.vertices)


def test_membership_matches_pointwise_oracle(flop):
    z = nabla(flop)
    cands = [(a, b) for a in range(-8, 9) for b in range(-8, 9) if (a, b) != (0, 0)]
    bounds = [(lam, eta(flop, lam)) for lam in cands]
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    for x in grid:
        for y in grid:
            direct = all(2 * abs(pair(lam, (x, y))) <= e for lam, e in bounds)
            assert z.contains((x, y)) == direct


def test_translate(flop):
    cx, cy = delta = (Fraction(1, 2), Fraction(1, 2))
    z = nabla(flop).translate(delta)
    assert z.contains((Fraction(3, 2), Fraction(1, 2)))
    assert not z.contains((Fraction(-1), Fraction(0)))
    # the hexagon is centrally symmetric about the origin, so its translate
    # is symmetric about delta and no longer about the origin
    assert {(2 * cx - x, 2 * cy - y) for x, y in z.vertices} == set(z.vertices)
    assert {(-x, -y) for x, y in z.vertices} != set(z.vertices)


def test_unbounded_report():
    constraints = [((0, 1), Fraction(0)), ((0, -1), Fraction(0))]
    with pytest.raises(UnboundedPolytopeError):
        polytope_from_constraints(2, constraints)


def test_non_quasi_symmetric_warns():
    p = GitPresentation.from_dict(
        {"rank": 1, "weights": [{"vec": [1], "mult": 2}, {"vec": [-1], "mult": 1}]}
    )
    with pytest.warns(UserWarning):
        nabla(p)


def test_arrangement_families(flop, conifold):
    fams = skms(flop).families
    assert [(f.normal, f.offsets) for f in fams] == [
        ((0, 1), (Fraction(0),)),
        ((1, 0), (Fraction(0),)),
        ((1, 1), (Fraction(0),)),
    ]
    fams1 = skms(conifold).families
    assert [(f.normal, f.offsets) for f in fams1] == [((1,), (Fraction(0),))]


def test_skms_residues(flop, conifold):
    d = skms(flop)
    assert d.line == (1, 1)
    assert d.punctures == (Fraction(0), Fraction(1, 2))
    assert d.N == 2
    d1 = skms(conifold)
    assert d1.line == (1,)
    assert d1.punctures == (Fraction(0),)
    assert d1.N == 1


def test_skms_degenerate_presentation_has_no_walls():
    p = GitPresentation.from_dict({"rank": 2, "weights": [{"vec": [0, 0], "mult": 3}]})
    d = skms(p)
    assert d.N == 0
    assert d.punctures == ()
    assert d.families == ()


def test_skms_jsonable(flop):
    data = skms(flop).to_jsonable()
    assert data["N"] == 2
    assert data["punctures"] == ["0", "1/2"]
    assert {tuple(h["normal"]) for h in data["halfspaces"]} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)
    }
    assert all(h["bound"] == "1" for h in data["halfspaces"])


def test_half_integer_offset_residue():
    # a single +-1 weight pair gives the interval [-1/2, 1/2], whose facet
    # translates puncture the line at half-integers only
    p = GitPresentation.from_dict(
        {"rank": 1, "weights": [{"vec": [1]}, {"vec": [-1]}]}
    )
    d = skms(p)
    assert d.punctures == (Fraction(1, 2),)
    assert d.N == 1


def test_skms_invariant_under_weyl_image(flop):
    g = flop.weyl[0]
    mapped = GitPresentation.from_dict(
        {
            "rank": 2,
            "roots": [list(mat_apply(g, r)) for r in flop.roots],
            "weights": [
                {"vec": list(mat_apply(g, w)), "mult": m} for w, m in flop.weights
            ],
            "weyl": [[[0, 1], [1, 0]]],
        }
    )
    assert skms(mapped).punctures == skms(flop).punctures
    assert skms(mapped).N == skms(flop).N


def test_face_poset_walls_and_chambers(flop):
    d = skms(flop)
    assert {j: d.wall(j) for j in range(-3, 4)} == {
        -3: Fraction(-1),
        -2: Fraction(-1, 2),
        -1: Fraction(0),
        0: Fraction(1, 2),
        1: Fraction(1),
        2: Fraction(3, 2),
        3: Fraction(2),
    }
    assert (d.wall(-1), d.wall(0)) == (Fraction(0), Fraction(1, 2))
    assert (d.wall(-2), d.wall(-1)) == (Fraction(-1, 2), Fraction(0))
    assert d.at(d.wall(-2)) == (Fraction(-1, 2), Fraction(-1, 2))
    assert d.at((d.wall(-1) + d.wall(0)) / 2) == (Fraction(1, 4), Fraction(1, 4))


def test_face_poset_adjacency(flop, conifold):
    # strictly increasing walls make every C_j = (D_{j-1}, D_j) nonempty, and
    # the closures of C_j and C_{j+1} meet exactly in the wall D_j
    for p in (flop, conifold):
        d = skms(p)
        walls = [d.wall(j) for j in range(-5, 6)]
        assert walls == sorted(set(walls))
        assert max(w for w in walls if w <= 0) == d.wall(-1)


def test_face_poset_conifold(conifold):
    d = skms(conifold)
    assert {j: d.wall(j) for j in range(-2, 3)} == {
        -2: Fraction(-1), -1: Fraction(0), 0: Fraction(1), 1: Fraction(2), 2: Fraction(3)
    }
    assert d.at(d.wall(0)) == (Fraction(1),)


def test_face_poset_off_the_origin_puncture():
    # the punctures of [-1/2, 1/2] are the half-integers, so D_{-1} = -1/2
    p = GitPresentation.from_dict({"rank": 1, "weights": [{"vec": [1]}, {"vec": [-1]}]})
    d = skms(p)
    assert [d.wall(j) for j in (-2, -1, 0, 1)] == [
        Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)
    ]


def test_face_poset_requires_walls():
    p = GitPresentation.from_dict({"rank": 2, "weights": [{"vec": [0, 0]}]})
    with pytest.raises(ValueError, match="no walls"):
        skms(p).wall(0)
