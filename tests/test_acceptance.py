"""Acceptance gate: eleven criteria, exact arithmetic, stated runtime caps.

Each test prints one pass line (visible with -s; pytest -v shows one
PASSED/FAILED line per criterion either way).  Tolerances are zero
throughout: every comparison is an equality of exact rational or integer
data.
"""

import json
import time
from fractions import Fraction
from math import comb, gcd

import random

from flopwin import cohomology, ncalg, quiver
from flopwin.cli import main
from flopwin.lattice import load_fixture, pair
from flopwin.verify import (
    BIG_WINDOW_TABLE,
    HEXAGON_HALFSPACES,
    HEXAGON_VERTICES,
    KAPPA_FLOP_EXPECTED,
    KAPPA_WALL_EXPECTED,
    WINDOW_TABLE,
    even_series,
)
from flopwin.windows import FaceRef, big_window, kappa_generators, window
from flopwin.zonotope import eta, nabla, skms

F = Fraction


def _finish(num: int, label: str, start: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.3f}s, cap {limit}s"
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.3f}s)")


def test_criterion_01_stability_polytope():
    start = time.perf_counter()
    p = load_fixture("universal_flop_length2.json")
    z = nabla(p)
    assert set(z.halfspaces) == HEXAGON_HALFSPACES
    assert set(z.vertices) == HEXAGON_VERTICES
    # exhaustive oracle over primitive directions with coordinates up to 8
    for a in range(-8, 9):
        for b in range(-8, 9):
            if (a, b) == (0, 0) or gcd(abs(a), abs(b)) != 1:
                continue
            limit = F(eta(p, (a, b)), 2)
            assert all(abs(pair((a, b), v)) <= limit for v in z.vertices)
    for normal, bound in z.halfspaces:
        assert F(eta(p, normal), 2) == bound
    _finish(1, "stability polytope H/V-representation", start, limit=1.0)


def test_criterion_02_arrangement_residues():
    start = time.perf_counter()
    flop = skms(load_fixture("universal_flop_length2.json"))
    assert flop.punctures == (F(0), F(1, 2))
    assert flop.N == 2
    conifold = skms(load_fixture("conifold.json"))
    assert conifold.punctures == (F(0),)
    assert conifold.N == 1
    _finish(2, "arrangement residues and puncture counts", start, limit=1.0)


def test_criterion_03_window_tables():
    start = time.perf_counter()
    p = load_fixture("universal_flop_length2.json")
    for j, text in WINDOW_TABLE.items():
        assert window(p, FaceRef("C", j)).render() == text
    for j, text in BIG_WINDOW_TABLE.items():
        assert big_window(p, FaceRef("D", j)).render() == text
    for j in (-2, -1, 0):
        lower = window(p, FaceRef("C", j)).classes
        upper = window(p, FaceRef("C", j + 2)).classes
        assert {tuple(c + 1 for c in chi) for chi in lower} == set(upper)
    _finish(3, "window and big-window tables with periodicity", start)


def test_criterion_04_wall_generators():
    start = time.perf_counter()
    p = load_fixture("universal_flop_length2.json")
    vertex = {g.key(): g.object_name
              for g in kappa_generators(p, FaceRef("D", -2), FaceRef("C", -2))}
    assert vertex == KAPPA_WALL_EXPECTED
    wall = {g.key(): g.object_name
            for g in kappa_generators(p, FaceRef("D", -1), FaceRef("C", 0))}
    assert wall == KAPPA_FLOP_EXPECTED
    assert all(co != (0, 1) for _, co in wall)
    _finish(4, "wall-subcategory generator sets", start)


def test_criterion_05_hilbert_series():
    start = time.perf_counter()
    d = 12
    assert cohomology.s0_invariant_dims(d) == even_series(d)
    endg = ncalg.hilbert(ncalg.catalog("endG"), d)
    assert endg == [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49]
    padded = even_series(d) + [0, 0]
    assert endg == [padded[k] + 2 * padded[k - 1] + padded[k - 2] for k in range(d + 1)]
    acon = ncalg.hilbert(ncalg.catalog("acon"), d)
    assert acon == [1, 3, 7, 12, 19, 27, 37, 48, 61, 75, 91, 108, 127]
    ctbc = ncalg.hilbert(ncalg.catalog("Ctbc"), d)
    cbc = ncalg.hilbert(ncalg.catalog("Cbc"), d)
    for k in range(d + 1):
        assert acon[k] == ctbc[k] + endg[k] - cbc[k]
        assert acon[k] == ctbc[k] + (endg[k - 2] if k >= 2 else 0)
    _finish(5, "three Hilbert series and both degreewise identities", start, limit=30.0)


def test_criterion_06_graded_kernels():
    start = time.perf_counter()
    d = 10
    pres = ncalg.catalog("acon")
    rs = ncalg.completed(pres, d)
    t = pres.gen("t")
    com = ncalg.commutator(pres.gen("beta"), pres.gen("gamma"))
    ker_t = ncalg.graded_kernel(rs, t, "right", d)
    assert ker_t.dims == ncalg.ideal_dims(rs, [com], d)[: len(ker_t.dims)]
    ker_c = ncalg.graded_kernel(rs, com, "right", d)
    assert ker_c.dims == ncalg.ideal_dims(rs, [t], d)[: len(ker_c.dims)]
    ok, why = ncalg.resolution_check(rs, [t, com, t, com], d)
    assert ok, why
    ok, why = ncalg.resolution_check(rs, [com, t, com, t], d)
    assert ok, why
    _finish(6, "graded kernels and periodic resolutions", start, limit=60.0)


def test_criterion_07_fiber_product():
    start = time.perf_counter()
    d = 10
    f_a, f_b = ncalg.standard_morphisms(d)
    report = ncalg.fiber_product(f_a, f_b, d)
    assert report.relations_ok
    assert report.generates
    assert report.dims == ncalg.hilbert(ncalg.catalog("acon"), d)
    _finish(7, "fiber-product relations, generation and dims", start)


def test_criterion_08_substitution_suite():
    start = time.perf_counter()
    base = ncalg.base_coordinates()
    rs = ncalg.completed("acon", 10)
    mapping = ncalg.acon_dictionary(rs.presentation)
    assert ncalg.substitute_and_reduce(rs, mapping, ncalg.hypersurface_polynomial(base), base) == {}
    for gen in ncalg.singular_polynomials(base).values():
        assert ncalg.substitute_and_reduce(rs, mapping, gen, base) == {}
    slice_dims, target_dims = ncalg.laufer_slice(12)
    assert slice_dims == target_dims
    _finish(8, "hypersurface and singular-locus substitution, slice dims", start)


def test_criterion_09_cohomology_suite():
    start = time.perf_counter()
    d = 15
    assert cohomology.afib_vanishing(d) == [0] * (d + 1)
    sections = cohomology.semiorthogonality_multiplicities(d)
    assert sections["Q_twist"] == [0] * (d + 1)
    assert sections["V_twist"] == [0] * (d + 1)
    dims = cohomology.ext1_FG_dims(d)
    assert dims == list(range(1, d + 2))
    assert dims == ncalg.hilbert(ncalg.catalog("Cbc"), d)
    assert cohomology.ext1_degree3_multiplicities(d) == [0] * (d + 1)
    assert cohomology.e2_sections(d) == [comb(m + 2, 2) for m in range(d + 1)]
    _finish(9, "vanishing, bimodule and chart-section computations", start)


def test_criterion_10_quiver_sweeps():
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(1000):
        rep = quiver.scalar_pair_rep(rng)
        assert not quiver.is_semistable(rep, "theta1")
    rng = random.Random(8)
    for _ in range(10000):
        rep = quiver.random_chart_rep(rng)
        assert quiver.base_equation(quiver.base_map(rep)) == 0
        assert (quiver.stratum(rep) == "semistable") == quiver.is_semistable(rep, "theta1")
    _finish(10, "randomized stability and base-equation sweeps", start, limit=60.0)


def test_criterion_11_cli_verify_all(capsys):
    start = time.perf_counter()
    code = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert len(payload["checks"]) == 10
    _finish(11, "command-line verification of every suite", start, limit=180.0)
