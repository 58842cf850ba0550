"""Named verification checks aggregating every bundled computation.

Each check reruns one slice of the library against its frozen expected
values or an independent engine and returns (ok, details).  The suites group
the checks the same way the command line exposes them; "all" runs everything.
This module is the only copy of each acceptance check: the acceptance tests
run `flopwin verify --suite all` once and read its verdicts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, gcd

from . import cohomology, ncalg, quiver
from .exact import _Record
from .lattice import load_fixture, pair
from .zonotope import eta, nabla, skms
from .windows import FaceRef, big_window, k_class, kappa_generators, window

HEXAGON_HALFSPACES = {
    ((1, 0), Fraction(1)),
    ((0, 1), Fraction(1)),
    ((1, 1), Fraction(1)),
    ((-1, 0), Fraction(1)),
    ((0, -1), Fraction(1)),
    ((-1, -1), Fraction(1)),
}

HEXAGON_VERTICES = {
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
}


def check_zonotope_hrep() -> tuple[bool, str]:
    """The stability polytope H/V-representation plus the primitive-direction oracle."""
    p = load_fixture("universal_flop_length2.json")
    z = nabla(p)
    if set(z.halfspaces) != HEXAGON_HALFSPACES:
        return False, f"halfspaces {sorted(z.halfspaces)}"
    if set(z.vertices) != HEXAGON_VERTICES:
        return False, f"vertices {sorted(z.vertices)}"
    bound = 8
    checked = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0) or gcd(abs(a), abs(b)) != 1:
                continue
            checked += 1
            limit = Fraction(eta(p, (a, b)), 2)
            if any(abs(pair((a, b), v)) > limit for v in z.vertices):
                return False, f"oracle violated at direction ({a}, {b})"
    for n, b in z.halfspaces:
        if Fraction(eta(p, n), 2) != b:
            return False, f"facet bound mismatch at {n}"
    return True, f"6 facets, 6 vertices, oracle over {checked} primitive directions"


def check_skms_residues() -> tuple[bool, str]:
    flop = skms(load_fixture("universal_flop_length2.json"))
    con = skms(load_fixture("conifold.json"))
    ok = (
        flop.punctures == (Fraction(0), Fraction(1, 2))
        and flop.N == 2
        and con.punctures == (Fraction(0),)
        and con.N == 1
    )
    detail = f"flop residues {[str(r) for r in flop.punctures]} N={flop.N}; conifold N={con.N}"
    return ok, detail


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


def check_window_tables() -> tuple[bool, str]:
    p = load_fixture("universal_flop_length2.json")
    for j, expected in WINDOW_TABLE.items():
        got = window(p, FaceRef("C", j)).render()
        if got != expected:
            return False, f"window C:{j} gave {got}, expected {expected}"
    for j, expected in BIG_WINDOW_TABLE.items():
        got = big_window(p, FaceRef("D", j)).render()
        if got != expected:
            return False, f"big window D:{j} gave {got}, expected {expected}"
    for j in (-2, -1, 0):
        lower = window(p, FaceRef("C", j)).classes
        upper = window(p, FaceRef("C", j + 2)).classes
        shifted = tuple(tuple(c + 1 for c in chi) for chi in lower)
        if set(shifted) != set(upper):
            return False, f"periodicity fails between C:{j} and C:{j + 2}"
    return True, "5 window tables, 5 big-window tables, periodicity on 3 pairs"


KAPPA_WALL_EXPECTED = {
    ((0, 0), (-1, -1)): "O_S0",
}

KAPPA_FLOP_EXPECTED = {
    ((1, 0), (-1, -1)): "O_S0(V)",
    ((1, 0), (0, -1)): "sigma_* O(Q)",
    ((1, -1), (0, -1)): "sigma_* O(Q^2 D^-1)",
}


def check_kappa_generators() -> tuple[bool, str]:
    p = load_fixture("universal_flop_length2.json")
    low = {g.key(): g.object_name for g in kappa_generators(p, FaceRef("D", -2), FaceRef("C", -2))}
    if low != KAPPA_WALL_EXPECTED:
        return False, f"(D:-2, C:-2) gave {low}"
    mid = {g.key(): g.object_name for g in kappa_generators(p, FaceRef("D", -1), FaceRef("C", 0))}
    # asked before the table comparison, which holds no (0, 1) and would mask it
    if any(co == (0, 1) for _, co in mid):
        return False, "excluded cocharacter (0, 1) appeared"
    if mid != KAPPA_FLOP_EXPECTED:
        return False, f"(D:-1, C:0) gave {mid}"
    wall = set(big_window(p, FaceRef("D", -1)).classes)
    for name, terms in (("resG", cohomology.RES_G_TERMS), ("resF", cohomology.RES_F_DOWNSTAIRS)):
        if not set(k_class(terms)) <= wall:
            return False, f"K-class of {name} leaves the D:-1 window"
    return True, "2 wall computations, 4 generators total, (0, 1) filtered"


def even_series(max_degree: int) -> list[int]:
    """Coefficients of 1/(1-s^2)^3 laid out degreewise."""
    return [comb(k // 2 + 2, 2) if k % 2 == 0 else 0 for k in range(max_degree + 1)]


def check_hilbert_series() -> tuple[bool, str]:
    d = 12
    series = even_series(d)
    invariants = cohomology.s0_invariant_dims(d)
    if invariants != series:
        return False, f"invariant dims {invariants}"
    endg = ncalg.hilbert(ncalg.catalog("endG"), d)
    padded = series + [0, 0]  # k - 1 and k - 2 wrap to the zeros at k < 2
    ore = [padded[k] + 2 * padded[k - 1] + padded[k - 2] for k in range(d + 1)]
    if endg != ore:
        return False, f"endomorphism dims {endg} vs Ore basis {ore}"
    acon = ncalg.hilbert(ncalg.catalog("acon"), d)
    ctbc = ncalg.hilbert(ncalg.catalog("Ctbc"), d)
    cbc = ncalg.hilbert(ncalg.catalog("Cbc"), d)
    for k in range(d + 1):
        if acon[k] != ctbc[k] + endg[k] - cbc[k]:
            return False, f"fiber identity fails at degree {k}"
        if acon[k] != ctbc[k] + (endg[k - 2] if k >= 2 else 0):
            return False, f"shift-2 exact-sequence identity fails at degree {k}"
    if acon[:7] != [1, 3, 7, 12, 19, 27, 37]:
        return False, f"contraction algebra dims {acon[:7]}"
    return True, f"three Hilbert series to degree {d} with both identities"


def check_graded_kernels() -> tuple[bool, str]:
    d = 10
    pres = ncalg.catalog("acon")
    rs = ncalg.completed(pres, d)
    t = pres.gen("t")
    com = ncalg.commutator(pres.gen("beta"), pres.gen("gamma"))
    # the right kernel of each element is the ideal I of the other, whose dims
    # dim A_k - dim (A/I)_k are read off a second completion, of the quotient
    gens = list(zip(pres.generators, pres.degrees))
    relations = [ncalg.poly_from_key(key) for key in pres.relations]
    for element, other, why in (
            (t, com, "kernel of right multiplication by t is not the commutator ideal"),
            (com, t, "kernel of the commutator action is not the t ideal")):
        kernel = ncalg.graded_kernel(rs, element, "right", d).dims
        quotient = ncalg.NCPresentation.build(gens, pres.central, relations + [other])
        ideal = [a - q for a, q in zip(rs.graded_dims(d), ncalg.hilbert(quotient, d))]
        if kernel != ideal[: len(kernel)]:
            return False, why
    ok1, why1 = ncalg.resolution_check(rs, [t, com, t, com], d)
    if not ok1:
        return False, f"resolution [t, c, t, c]: {why1}"
    ok2, why2 = ncalg.resolution_check(rs, [com, t, com, t], d)
    if not ok2:
        return False, f"resolution [c, t, c, t]: {why2}"
    return True, f"two kernels and two periodic resolutions to degree {d}"


def check_fiber_product() -> tuple[bool, str]:
    d = 10
    f_a, f_b = ncalg.standard_morphisms(d)
    report = ncalg.fiber_product(f_a, f_b, d)
    acon = ncalg.hilbert(ncalg.catalog("acon"), d)
    if not report.relations_ok:
        return False, "defining relations fail on the generating pairs"
    if not report.generates:
        return False, "pairs do not generate the fiber product"
    if report.dims != acon:
        return False, f"fiber dims {report.dims} vs {acon}"
    return True, f"relations, generation and dims agree to degree {d}"


def check_substitution_laufer() -> tuple[bool, str]:
    rs = ncalg.completed(ncalg.catalog("acon"), 10)
    mapping = ncalg.acon_dictionary(rs.presentation)
    for name, image in mapping.items():
        if not ncalg.is_central(rs, image):
            return False, f"image of {name} is not central"
    images = [mapping[name] for name in "xyztuvw"]
    if ncalg.substitute(rs, quiver.hypersurface, images):
        return False, "hypersurface polynomial does not reduce to zero"
    for name, value in ncalg.substitute(rs, quiver.singular_generators, images).items():
        if value:
            return False, f"singular-locus generator {name} does not reduce to zero"
    slice_dims, target_dims = ncalg.laufer_slice(12)
    if slice_dims != target_dims:
        return False, f"slice dims {slice_dims} vs target {target_dims}"
    return True, "hypersurface, 7 singular generators, slice dims to weighted degree 12"


def check_cohomology_suite() -> tuple[bool, str]:
    d = 15
    if cohomology.afib_vanishing(d) != [0] * (d + 1):
        return False, "dual-representation multiplicity does not vanish"
    if not cohomology.verify_semiorthogonality(d):
        return False, "a semiorthogonality section count is nonzero"
    try:
        dims = cohomology.ext1_FG_dims(d)
    except ValueError as exc:
        return False, str(exc)
    if dims != list(range(1, d + 2)):
        return False, f"bimodule dims {dims}"
    if dims != ncalg.hilbert(ncalg.catalog("Cbc"), d):
        return False, "bimodule dims disagree with the two-variable polynomial ring"
    expected = [comb(m + 2, 2) for m in range(d + 1)]
    if cohomology.e2_sections(d) != expected:
        return False, "chart sections do not match the three-variable polynomial ring"
    for a in range(-6, 7):
        for b in range(-6, 7):
            if cohomology.pv_line_cohomology(a, b) != cohomology.cech_line_cohomology(a, b):
                return False, f"line cohomology of L^{a} Q^{b} disagrees with the Cech count"
    if not cohomology.verify_resf_pushforward():
        return False, "the resF upstairs complex does not push down to its displayed terms"
    return True, f"vanishing, bimodule and chart section checks to degree {d}"


def check_quiver_sweeps() -> tuple[bool, str]:
    rng = random.Random(101)
    for i in range(1000):
        rep = quiver.scalar_pair_rep(rng)
        if quiver.is_semistable(rep, "theta1"):
            return False, f"scalar-pair sample {i} is semistable"
    rng = random.Random(202)
    for i in range(10000):
        rep = quiver.random_chart_rep(rng)
        point = quiver.base_map(rep)
        if quiver.base_equation(point) != 0:
            return False, f"base equation nonzero on sample {i}"
        if (quiver.stratum(rep) == "semistable") != quiver.is_semistable(rep, "theta1"):
            return False, f"stratum label inconsistent on sample {i}"
    return True, "1000 scalar-pair reps unstable; 10000 chart samples on the hypersurface"


class CheckResult(_Record):
    __slots__ = ("name", "ok", "elapsed", "details")


_CHECKS = {
    "zonotope-hrep": check_zonotope_hrep,
    "skms-residues": check_skms_residues,
    "window-tables": check_window_tables,
    "kappa-generators": check_kappa_generators,
    "hilbert-series": check_hilbert_series,
    "graded-kernels": check_graded_kernels,
    "fiber-product": check_fiber_product,
    "substitution-laufer": check_substitution_laufer,
    "cohomology-suite": check_cohomology_suite,
    "quiver-sweeps": check_quiver_sweeps,
}

SUITES = {
    "polyhedral": (
        "zonotope-hrep",
        "skms-residues",
        "window-tables",
        "kappa-generators",
    ),
    "algebra": (
        "hilbert-series",
        "graded-kernels",
        "fiber-product",
        "substitution-laufer",
    ),
    "cohomology": ("cohomology-suite",),
    "quiver": ("quiver-sweeps",),
}
SUITES["all"] = SUITES["polyhedral"] + SUITES["algebra"] + SUITES["cohomology"] + SUITES["quiver"]


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        choices = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; choose from {choices}")
    results = []
    for name in SUITES[suite]:
        start = time.perf_counter()
        ok, details = _CHECKS[name]()
        results.append(CheckResult(name, ok, time.perf_counter() - start, details))
    return results
