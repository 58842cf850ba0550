from __future__ import annotations

import time
from fractions import Fraction
from math import ceil, floor, prod

import pytest

from flopwin.cohomology import RES_F_DOWNSTAIRS, RES_G_TERMS
from flopwin.lattice import load_fixture, vec_add
from flopwin.verify import BIG_WINDOW_TABLE, KAPPA_FLOP_EXPECTED, WINDOW_TABLE
from flopwin.windows import (
    FaceRef,
    KappaGenerator,
    big_window,
    k_class,
    kappa_generators,
    lattice_points,
    nu_filter,
    rep_name,
    window,
)
from flopwin import windows, zonotope
from flopwin.zonotope import nabla, skms


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


@pytest.mark.parametrize("j", sorted(WINDOW_TABLE))
def test_window_table(flop, j):
    assert window(flop, FaceRef.parse(f"C:{j}")).render() == WINDOW_TABLE[j]


@pytest.mark.parametrize("j", sorted(BIG_WINDOW_TABLE))
def test_big_window_table(flop, j):
    assert big_window(flop, FaceRef.parse(f"D:{j}")).render() == BIG_WINDOW_TABLE[j]


def test_window_lattice_sets(flop):
    assert window(flop, FaceRef.parse("C:0")).lattice == ((0, 0), (0, 1), (1, 0))
    assert window(flop, FaceRef.parse("C:-1")).lattice == ((-1, 0), (0, -1), (0, 0))
    assert big_window(flop, FaceRef.parse("D:-1")).lattice == (
        (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0),
    )
    spec = big_window(flop, FaceRef.parse("D:-1"))
    assert len(spec.boundary) == 6
    assert (0, 0) not in spec.boundary


def test_picard_periodicity(flop):
    for j in range(-4, 5):
        w = window(flop, FaceRef.parse(f"C:{j}"))
        w2 = window(flop, FaceRef.parse(f"C:{j + 2}"))
        assert w2.lattice == tuple(sorted(vec_add(pt, (1, 1)) for pt in w.lattice))
        assert w2.classes == tuple(vec_add(c, (1, 1)) for c in w.classes)


def assert_picard_twist(p, kind, j, base):
    """The face kind:j is the kind:0 or kind:-1 face (from base) twisted by O(q)."""
    spec = window if kind == "C" else big_window
    j0 = 0 if j % 2 == 0 else -1
    q = (j - j0) // 2
    ref = base[j0]
    got = spec(p, FaceRef.parse(f"{kind}:{j}"))
    classes = tuple(vec_add(c, (q, q)) for c in ref.classes)
    assert got.classes == classes
    assert got.lattice == tuple(sorted(vec_add(pt, (q, q)) for pt in ref.lattice))
    assert got.render() == "⟨" + ", ".join(rep_name(c) for c in classes) + "⟩"


@pytest.mark.parametrize("kind", ["C", "D"])
def test_picard_periodicity_far_from_the_origin(flop, kind):
    """Every face in [-12, 12] is the C:0/C:-1 (or D:0/D:-1) face twisted by O(q)."""
    spec = window if kind == "C" else big_window
    base = {0: spec(flop, FaceRef.parse(f"{kind}:0")), -1: spec(flop, FaceRef.parse(f"{kind}:-1"))}
    for j in range(-12, 13):
        assert_picard_twist(flop, kind, j, base)


@pytest.mark.parametrize("kind", ["C", "D"])
def test_faces_at_huge_indices_cost_constant_time(flop, kind):
    spec = window if kind == "C" else big_window
    base = {0: spec(flop, FaceRef.parse(f"{kind}:0")), -1: spec(flop, FaceRef.parse(f"{kind}:-1"))}
    start = time.perf_counter()
    for j in (10**9, 10**9 + 1, -10**9, -10**9 - 1):
        assert_picard_twist(flop, kind, j, base)
    assert time.perf_counter() - start < 1.0


def reference_walls(p, j_min, j_max):
    """Walls D_j by listing every puncture r + k with |k| <= 70, sorted."""
    residues = skms(p).punctures
    listed = sorted(r + k for r in residues for k in range(-70, 71))
    anchor = max(i for i, v in enumerate(listed) if v <= 0)
    return {j: listed[anchor + j + 1] for j in range(j_min, j_max + 1)}


@pytest.mark.parametrize("fixture", ["flop", "conifold"])
def test_face_poset_matches_enumerated_punctures(fixture, request):
    p = request.getfixturevalue(fixture)
    walls = reference_walls(p, -61, 60)
    d = skms(p)
    # D_{-61} .. D_60 bound every chamber C_j = (D_{j-1}, D_j) with |j| <= 60
    for j in range(-61, 61):
        assert d.wall(j) == walls[j]
        assert d.at(d.wall(j)) == tuple(walls[j] * c for c in d.line)


def test_window_builds_the_polytope_once(flop, monkeypatch):
    calls = []

    def counting_nabla(p):
        calls.append(p)
        return nabla(p)

    # windows.py must reach the polytope through the descriptor alone; the
    # second wrapper also counts calls through a direct import of nabla there
    monkeypatch.setattr(zonotope, "nabla", counting_nabla)
    monkeypatch.setattr(windows, "nabla", counting_nabla, raising=False)
    assert window(flop, FaceRef.parse("C:0")).render() == "⟨O, V⟩"
    assert len(calls) == 1

    # membership is tested once per candidate lattice point; the boundary
    # filter only reads the halfspaces of the points already kept
    seen, contains = [], zonotope.Zonotope.contains

    def counting_contains(z, point):
        seen.append((z, tuple(point)))
        return contains(z, point)

    monkeypatch.setattr(zonotope.Zonotope, "contains", counting_contains)
    assert big_window(flop, FaceRef.parse("D:-1")).boundary
    polytopes = {id(z): z for z, _ in seen}
    candidates = sum(
        prod(floor(max(v[i] for v in z.vertices)) - ceil(min(v[i] for v in z.vertices)) + 1
             for i in range(z.rank))
        for z in polytopes.values()
    )
    assert len(polytopes) == 4  # the wall translate and three chamber samples
    assert len(seen) == len({(id(z), pt) for z, pt in seen}) == candidates


def test_point_polytope_is_all_boundary():
    point = zonotope.Zonotope(rank=1, halfspaces=(), vertices=((Fraction(0),),))
    assert lattice_points(point) == ((0,),)
    assert windows._boundary_points(point, ((0,),)) == ((0,),)


def test_window_wrong_kind_rejected(flop):
    with pytest.raises(ValueError):
        window(flop, FaceRef.parse("D:0"))
    with pytest.raises(ValueError):
        big_window(flop, FaceRef.parse("C:0"))


def test_conifold_windows(conifold):
    assert window(conifold, FaceRef.parse("C:0")).render() == "⟨O, O(1)⟩"
    assert window(conifold, FaceRef.parse("C:-1")).render() == "⟨O(-1), O⟩"
    assert big_window(conifold, FaceRef.parse("D:-1")).lattice == ((-1,), (0,), (1,))


def test_nu_filter():
    eps = (Fraction(-1, 4), Fraction(-1, 4))
    assert nu_filter(eps, (-1, -1))
    assert nu_filter(eps, (0, -1))
    assert not nu_filter(eps, (1, 0))  # pairs negatively
    assert not nu_filter(eps, (0, 1))  # not weakly decreasing
    assert not nu_filter(eps, (0, 0))  # zero pairing excluded
    assert nu_filter((Fraction(1), Fraction(1)), (2, 1))


def test_kappa_deepest_wall(flop):
    gens = kappa_generators(flop, FaceRef.parse("D:-2"), FaceRef.parse("C:-2"))
    assert [(g.chi_class, g.cocharacter) for g in gens] == [((0, 0), (-1, -1))]
    assert gens[0].object_name == "O_S0"


def test_kappa_flop_wall(flop):
    for cface in ("C:0", "C:-1"):
        gens = kappa_generators(flop, FaceRef.parse("D:-1"), FaceRef.parse(cface))
        assert {g.key(): g.object_name for g in gens} == KAPPA_FLOP_EXPECTED
        # the two facet normals Weyl-conjugate to (0,1)/(1,0) never survive
        assert all(g.cocharacter not in {(0, 1), (1, 0), (1, 1)} for g in gens)


def test_kappa_adjacency_validation(flop):
    with pytest.raises(ValueError):
        kappa_generators(flop, FaceRef.parse("D:-1"), FaceRef.parse("C:2"))
    with pytest.raises(ValueError):
        kappa_generators(flop, FaceRef.parse("C:0"), FaceRef.parse("C:0"))


def test_kappa_conifold(conifold):
    gens = kappa_generators(conifold, FaceRef.parse("D:-1"), FaceRef.parse("C:0"))
    assert len(gens) == 1
    assert gens[0].chi_class == (1,)
    assert gens[0].cocharacter == (-1,)
    gens_low = kappa_generators(conifold, FaceRef.parse("D:-1"), FaceRef.parse("C:-1"))
    assert [g.key() for g in gens_low] == [g.key() for g in gens]


def test_k_class_alternating_sums():
    assert k_class(RES_G_TERMS) == {(1, 0): 1, (0, 0): -1, (1, -1): -1, (0, -1): 1}
    assert k_class(RES_F_DOWNSTAIRS) == {(0, 0): -3, (1, -1): 1}


def test_k_class_supported_on_wall_window(flop):
    wall = set(big_window(flop, FaceRef.parse("D:-1")).classes)
    for terms in (RES_G_TERMS, RES_F_DOWNSTAIRS):
        assert set(k_class(terms)) <= wall


def test_kappa_generator_is_hashable_record(flop):
    gens = kappa_generators(flop, FaceRef.parse("D:-1"), FaceRef.parse("C:0"))
    assert len({g.key() for g in gens}) == 3
    assert all(isinstance(g, KappaGenerator) for g in gens)


def _records(p):
    """One value of each record class of lattice, zonotope and windows."""
    d = skms(p)
    return [p, d, d.zonotope, d.families[0], FaceRef("D", -1), window(p, FaceRef("C", 0)),
            kappa_generators(p, FaceRef("D", -1), FaceRef("C", 0))[0]]


def test_records_compare_and_hash_by_their_fields(flop, conifold):
    for value in _records(flop):
        cls, names = type(value), value.__slots__
        fields = {name: getattr(value, name) for name in names}
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == value == by_position, cls.__name__
        assert hash(by_keyword) == hash(value) == hash(tuple(fields.values()))
        assert len({value, by_keyword, by_position}) == 1
        assert value != tuple(fields.values())
        assert repr(value).startswith(f"{cls.__name__}({names[0]}=")
        for name in names:
            assert cls(**{**fields, name: object()}) != value, (cls.__name__, name)
    assert _records(flop)[0] != _records(conifold)[0]


def test_records_are_immutable(flop):
    for value in _records(flop):
        for name in value.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
    assert FaceRef("C", 0).j == 0
