from __future__ import annotations

from fractions import Fraction

import pytest

from flopwin.lattice import load_fixture, vec_add
from flopwin.windows import (
    FaceRef,
    KappaGenerator,
    big_window,
    k_class,
    kappa_generators,
    lattice_points,
    mu_F,
    nu_filter,
    rep_name,
    window,
)
from flopwin.zonotope import face_poset, nabla


@pytest.fixture(scope="module")
def flop():
    return load_fixture("universal_flop_length2.json")


@pytest.fixture(scope="module")
def conifold():
    return load_fixture("conifold.json")


def test_face_ref_parsing():
    assert FaceRef.parse("C:0") == FaceRef("C", 0)
    assert FaceRef.parse("D:-2") == FaceRef("D", -2)
    assert str(FaceRef.parse("d:3")) == "D:3"
    with pytest.raises(ValueError):
        FaceRef.parse("E:1")
    with pytest.raises(ValueError):
        FaceRef.parse("C:x")


def test_rep_names():
    assert rep_name((0, 0)) == "O"
    assert rep_name((1, 1)) == "O(1)"
    assert rep_name((1, 0)) == "V"
    assert rep_name((0, -1)) == "V(-1)"
    assert rep_name((1, -1)) == "Sym^2V(-1)"
    assert rep_name((2, 0)) == "Sym^2V"
    assert rep_name((3, -2)) == "Sym^5V(-2)"
    assert rep_name((0,)) == "O"
    assert rep_name((2,)) == "O(2)"
    with pytest.raises(ValueError):
        rep_name((0, 1))


def test_lattice_points_of_translates(flop):
    z = nabla(flop)
    assert lattice_points(z.translate((Fraction(1, 4), Fraction(1, 4)))) == (
        (0, 0), (0, 1), (1, 0),
    )
    assert lattice_points(z.translate((Fraction(-1, 4), Fraction(-1, 4)))) == (
        (-1, 0), (0, -1), (0, 0),
    )
    assert lattice_points(z.translate((Fraction(-1, 2), Fraction(-1, 2)))) == (
        (-1, -1), (-1, 0), (0, -1), (0, 0),
    )
    assert len(lattice_points(z)) == 7


WINDOW_TABLE = {
    -2: "⟨O(-1), V(-1)⟩",
    -1: "⟨O, V(-1)⟩",
    0: "⟨O, V⟩",
    1: "⟨O(1), V⟩",
    2: "⟨O(1), V(1)⟩",
}

BIG_WINDOW_TABLE = {
    -2: "⟨O(-1), V(-1), O⟩",
    -1: "⟨O, V, V(-1), Sym^2V(-1)⟩",
    0: "⟨O, V, O(1)⟩",
    1: "⟨O(1), V(1), V, Sym^2V⟩",
    2: "⟨O(1), V(1), O(2)⟩",
}


@pytest.mark.parametrize("j", sorted(WINDOW_TABLE))
def test_window_table(flop, j):
    assert window(flop, f"C:{j}").render() == WINDOW_TABLE[j]


@pytest.mark.parametrize("j", sorted(BIG_WINDOW_TABLE))
def test_big_window_table(flop, j):
    assert big_window(flop, f"D:{j}").render() == BIG_WINDOW_TABLE[j]


def test_window_lattice_sets(flop):
    assert window(flop, "C:0").lattice == ((0, 0), (0, 1), (1, 0))
    assert window(flop, "C:-1").lattice == ((-1, 0), (0, -1), (0, 0))
    assert big_window(flop, "D:-1").lattice == (
        (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0),
    )
    spec = big_window(flop, "D:-1")
    assert len(spec.boundary) == 6
    assert (0, 0) not in spec.boundary


def test_picard_periodicity(flop):
    for j in range(-4, 5):
        w = window(flop, f"C:{j}")
        w2 = window(flop, f"C:{j + 2}")
        assert w2.lattice == tuple(sorted(vec_add(pt, (1, 1)) for pt in w.lattice))
        assert w2.classes == tuple(vec_add(c, (1, 1)) for c in w.classes)


@pytest.mark.parametrize("kind", ["C", "D"])
def test_picard_periodicity_far_from_the_origin(flop, kind):
    """Every face in [-12, 12] is the C:0/C:-1 (or D:0/D:-1) face twisted by O(q)."""
    spec = window if kind == "C" else big_window
    base = {0: spec(flop, f"{kind}:0"), -1: spec(flop, f"{kind}:-1")}
    for j in range(-12, 13):
        j0 = 0 if j % 2 == 0 else -1
        q = (j - j0) // 2
        ref = base[j0]
        got = spec(flop, f"{kind}:{j}")
        classes = tuple(vec_add(c, (q, q)) for c in ref.classes)
        assert got.classes == classes
        assert got.lattice == tuple(sorted(vec_add(pt, (q, q)) for pt in ref.lattice))
        assert got.render() == "⟨" + ", ".join(rep_name(c) for c in classes) + "⟩"


def test_window_wrong_kind_rejected(flop):
    with pytest.raises(ValueError):
        window(flop, "D:0")
    with pytest.raises(ValueError):
        big_window(flop, "C:0")


def test_conifold_windows(conifold):
    assert window(conifold, "C:0").render() == "⟨O, O(1)⟩"
    assert window(conifold, "C:-1").render() == "⟨O(-1), O⟩"
    assert big_window(conifold, "D:-1").lattice == ((-1,), (0,), (1,))


def test_mu_F(flop):
    poset = face_poset(flop, -1, -1)
    zt = nabla(flop).translate(poset.point_in_ambient(-1))
    assert mu_F(zt, (1, 1)) == (-1, -1)
    assert mu_F(zt, (1, 0)) == (-1, 0)
    assert mu_F(zt, (0, -1)) == (0, 1)
    with pytest.raises(ValueError):
        mu_F(zt, (2, 1))


def test_nu_filter():
    eps = (Fraction(-1, 4), Fraction(-1, 4))
    assert nu_filter(eps, (-1, -1))
    assert nu_filter(eps, (0, -1))
    assert not nu_filter(eps, (1, 0))  # pairs negatively
    assert not nu_filter(eps, (0, 1))  # not weakly decreasing
    assert not nu_filter(eps, (0, 0))  # zero pairing excluded
    assert nu_filter((Fraction(1), Fraction(1)), (2, 1))


def test_kappa_deepest_wall(flop):
    gens = kappa_generators(flop, "D:-2", "C:-2")
    assert [(g.chi_class, g.cocharacter) for g in gens] == [((0, 0), (-1, -1))]
    assert gens[0].object_name == "O_S0"


def test_kappa_flop_wall(flop):
    expected = {
        ((1, 0), (-1, -1)): "O_S0(V)",
        ((1, 0), (0, -1)): "sigma_* O(Q)",
        ((1, -1), (0, -1)): "sigma_* O(Q^2 D^-1)",
    }
    for cface in ("C:0", "C:-1"):
        gens = kappa_generators(flop, "D:-1", cface)
        assert {g.key(): g.object_name for g in gens} == expected
        # the two facet normals Weyl-conjugate to (0,1)/(1,0) never survive
        assert all(g.cocharacter not in {(0, 1), (1, 0), (1, 1)} for g in gens)


def test_kappa_adjacency_validation(flop):
    with pytest.raises(ValueError):
        kappa_generators(flop, "D:-1", "C:2")
    with pytest.raises(ValueError):
        kappa_generators(flop, "C:0", "C:0")


def test_kappa_conifold(conifold):
    gens = kappa_generators(conifold, "D:-1", "C:0")
    assert len(gens) == 1
    assert gens[0].chi_class == (1,)
    assert gens[0].cocharacter == (-1,)
    gens_low = kappa_generators(conifold, "D:-1", "C:-1")
    assert [g.key() for g in gens_low] == [g.key() for g in gens]


def test_k_class_alternating_sums():
    res_g = [[(0, -1)], [(0, 0), (1, -1)], [(1, 0)]]
    assert k_class(res_g) == {(1, 0): 1, (0, 0): -1, (1, -1): -1, (0, -1): 1}
    res_f = [[(1, -1)], [(0, 0), (0, 0), (0, 0), (1, 0)], [(1, 0)]]
    assert k_class(res_f) == {(0, 0): -3, (1, -1): 1}


def test_k_class_supported_on_wall_window(flop):
    wall = set(big_window(flop, "D:-1").classes)
    for terms in (
        [[(0, -1)], [(0, 0), (1, -1)], [(1, 0)]],
        [[(1, -1)], [(0, 0), (0, 0), (0, 0), (1, 0)], [(1, 0)]],
    ):
        assert set(k_class(terms)) <= wall


def test_kappa_generator_is_hashable_record(flop):
    gens = kappa_generators(flop, "D:-1", "C:0")
    assert len({g.key() for g in gens}) == 3
    assert all(isinstance(g, KappaGenerator) for g in gens)
