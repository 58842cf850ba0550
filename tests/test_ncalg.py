import random
from collections import deque
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import flopwin.ncalg as ncalg
from flopwin.exact import combine, echelon
from flopwin.ncalg import (
    Morphism,
    NCPresentation,
    RewriteSystem,
    acon_dictionary,
    base_coordinates,
    catalog,
    catalog_names,
    commutator,
    complete,
    completed,
    fiber_product,
    graded_kernel,
    hilbert,
    hypersurface_polynomial,
    ideal_dims,
    is_central,
    laufer_slice,
    normal_form,
    p_mul,
    parse_expr,
    resolution_check,
    singular_polynomials,
    standard_morphisms,
    substitute_and_reduce,
)

ACON_DIMS = [1, 3, 7, 12, 19, 27, 37, 48, 61, 75, 91, 108, 127]
ENDG_DIMS = [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49]


def bracket(pres):
    return commutator(pres.gen("beta"), pres.gen("gamma"))


def first_nonzero(dims):
    return next(k for k, dim in enumerate(dims) if dim)


def test_catalog_names():
    assert catalog_names() == ["Cbc", "Ctbc", "acon", "afib", "endG", "laufer_target"]
    with pytest.raises(ValueError, match="'Cbc', 'Ctbc', 'acon'"):
        catalog("nope")


def test_catalog_matches_word_tuples():
    # the presentations written out as word tuples, independently of parse_expr
    one = Fraction(1)
    t, b, g = (0,), (1,), (2,)
    acon_relations = [
        {b + b + g: one, g + b + b: -one},
        {g + g + b: one, b + g + g: -one},
        {t + b + g: one, t + g + b: -one},
    ]
    b2, g2 = (0,), (1,)
    expected = {
        "acon": NCPresentation.build([("t", 1), ("beta", 1), ("gamma", 1)], ["t"],
                                     acon_relations),
        "endG": NCPresentation.build([("beta", 1), ("gamma", 1)], relations=[
            {b2 + b2 + g2: one, g2 + b2 + b2: -one},
            {g2 + g2 + b2: one, b2 + g2 + g2: -one},
        ]),
        "Ctbc": NCPresentation.build([("t", 1), ("b", 1), ("c", 1)], ["t", "b", "c"]),
        "Cbc": NCPresentation.build([("b", 1), ("c", 1)], ["b", "c"]),
        "afib": NCPresentation.build([("Tbeta", 1), ("Tgamma", 1), ("Tdelta", 1)],
                                     ["Tbeta", "Tgamma", "Tdelta"]),
        "laufer_target": NCPresentation.build([("beta", 3), ("gamma", 2)], relations=[
            {b2 + b2: one, g2 + g2 + g2: -one},
            {b2 + g2: one, g2 + b2: one},
        ]),
    }
    assert catalog_names() == sorted(expected)
    for name, pres in expected.items():
        assert catalog(name) == pres, name


def test_completion_rules_acon():
    rs = completed(catalog("acon"), 6)
    lhs = {l for l, _ in rs.rules}
    # t < beta < gamma orients the three relations and the centrality moves
    assert {(2, 1, 1), (2, 2, 1), (0, 2, 1), (1, 0), (2, 0)} <= lhs
    assert (0, 1, 2, 1) in lhs  # derived: t*beta*gamma*beta -> t*beta^2*gamma
    for key in rs.presentation.relations:
        assert rs.normal_form({w: c for w, c in key}) == {}


def test_completion_trivial_cases():
    commutative = NCPresentation.build(
        [("x", 1), ("y", 1)],
        relations=[{(0, 1): Fraction(1), (1, 0): Fraction(-1)}],
    )
    rs = complete(commutative, 4)
    assert rs.rules == [((1, 0), {(0, 1): Fraction(1)})]
    free = NCPresentation.build([("x", 1), ("y", 1)])
    assert complete(free, 4).rules == []
    assert hilbert(free, 5) == [1, 2, 4, 8, 16, 32]


def test_completion_fails_on_an_s_polynomial_left_out_of_the_queue(monkeypatch):
    # C<x, y>/(y*y - x*y): the rule y*y -> x*y overlaps itself on y*y*y, whose
    # S-polynomial x*y*y - y*x*y is the first one complete queues; it yields
    # the rule y*x*y -> x*x*y, without which the final pass cannot reduce it
    pres = NCPresentation.build([("x", 1), ("y", 1)],
                                relations=[{(1, 1): Fraction(1), (0, 1): Fraction(-1)}])
    assert [lhs for lhs, _ in complete(pres, 4).rules] == [(1, 1), (1, 0, 1), (1, 0, 0, 1)]

    class LeakyQueue(deque):
        """A queue that leaves out the first S-polynomial complete hands it."""
        left_out = []

        def extend(self, polys):
            polys = list(polys)
            if polys and not self.left_out:
                self.left_out.append(polys.pop(0))
            super().extend(polys)

    monkeypatch.setattr(ncalg, "deque", LeakyQueue)
    with pytest.raises(RuntimeError, match=r"^completion failed to reach confluence$"):
        complete(pres, 4)
    assert LeakyQueue.left_out == [{(0, 1, 1): 1, (1, 0, 1): -1}]


def test_completion_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        NCPresentation.build(
            [("x", 1), ("y", 1)],
            relations=[{(0,): Fraction(1), (1, 1): Fraction(-1)}],
        )


def test_normal_forms_in_acon():
    pres = catalog("acon")
    rs = completed(pres, 8)
    t = pres.gen("t")
    assert rs.normal_form(p_mul(t, bracket(pres))) == {}
    nf = rs.normal_form(bracket(pres))
    assert nf == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    with pytest.raises(ValueError):
        rs.normal_form({(0,) * 9: Fraction(1)})


def test_normal_form_in_endg():
    pres = catalog("endG")
    rs = completed(pres, 6)
    beta2 = p_mul(pres.gen("beta"), pres.gen("beta"))
    assert rs.normal_form(commutator(beta2, pres.gen("gamma"))) == {}


def test_hilbert_series():
    assert hilbert(catalog("Ctbc"), 8) == [comb(k + 2, 2) for k in range(9)]
    assert hilbert(catalog("Cbc"), 8) == [k + 1 for k in range(9)]
    assert hilbert(catalog("afib"), 3) == [1, 3, 6, 10]
    assert hilbert(catalog("endG"), 12) == ENDG_DIMS
    assert hilbert(catalog("acon"), 12) == ACON_DIMS


@pytest.mark.parametrize("name", catalog_names())
def test_hilbert_below_the_relation_degrees(name):
    # a relation of degree > d cannot rewrite a word of degree <= d
    full = hilbert(catalog(name), 12)
    for d in range(5):
        assert hilbert(catalog(name), d) == full[: d + 1]


def test_endg_series_oracle():
    # (1+s)^2 / (1-s^2)^3 expanded independently
    a = [comb(k // 2 + 2, 2) if k % 2 == 0 else 0 for k in range(13)]
    expected = [
        a[k] + (2 * a[k - 1] if k >= 1 else 0) + (a[k - 2] if k >= 2 else 0)
        for k in range(13)
    ]
    assert expected == ENDG_DIMS
    # free rank-4 module over the central subalgebra on beta^2, gamma^2,
    # beta*gamma + gamma*beta, with basis 1, beta, gamma, beta*gamma
    p = [comb(k // 2 + 2, 2) if k % 2 == 0 else 0 for k in range(13)]
    for k in range(13):
        total = p[k] + (p[k - 1] * 2 if k >= 1 else 0) + (p[k - 2] if k >= 2 else 0)
        assert ENDG_DIMS[k] == total


def test_fiber_dimension_identity():
    acon, ctbc = hilbert(catalog("acon"), 10), hilbert(catalog("Ctbc"), 10)
    endg, cbc = hilbert(catalog("endG"), 10), hilbert(catalog("Cbc"), 10)
    for k in range(11):
        assert acon[k] == ctbc[k] + endg[k] - cbc[k]
        assert acon[k] == ctbc[k] + (endg[k - 2] if k >= 2 else 0)


def test_centrality():
    pres = catalog("acon")
    rs = completed(pres, 12)
    beta, gamma, t = pres.gen("beta"), pres.gen("gamma"), pres.gen("t")
    assert is_central(rs, p_mul(beta, beta))
    assert is_central(rs, t)
    assert not is_central(rs, bracket(pres))

    endg = catalog("endG")
    rs_g = completed(endg, 12)
    b, c = endg.gen("beta"), endg.gen("gamma")
    for elem in (p_mul(b, b), p_mul(c, c), combine([(1, p_mul(b, c)), (1, p_mul(c, b))])):
        assert is_central(rs_g, elem)
    assert not is_central(rs_g, b)


def test_graded_kernels_match_named_ideals():
    pres = catalog("acon")
    rs = completed(pres, 10)
    t = pres.gen("t")
    com = bracket(pres)

    ker_t = graded_kernel(rs, t, "right", 10)
    ideal_com = ideal_dims(rs, [com], 10)
    assert ker_t.dims == ideal_com[:10]
    assert first_nonzero(ker_t.dims) == 2

    ker_com = graded_kernel(rs, com, "right", 10)
    ideal_t = ideal_dims(rs, [t], 10)
    assert ker_com.dims == ideal_t[:9]
    assert first_nonzero(ker_com.dims) == 1


def test_kernel_on_free_algebra():
    free = NCPresentation.build([("x", 1), ("y", 1)])
    rs = complete(free, 6)
    report = graded_kernel(rs, free.gen("x"), "right", 6)
    assert report.dims == [0] * 6


def test_periodic_resolutions():
    pres = catalog("acon")
    rs = completed(pres, 10)
    t = pres.gen("t")
    com = bracket(pres)
    ok, why = resolution_check(rs, [t, com, t, com], 10)
    assert ok, why
    ok, why = resolution_check(rs, [com, t, com, t], 10)
    assert ok, why
    bad, why = resolution_check(rs, [t, t], 10)
    assert not bad and "composite" in why


def test_kernel_matrices_built_once_per_system(monkeypatch):
    calls = []

    def counting_echelon(rows, width=None):
        calls.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(ncalg, "echelon", counting_echelon)
    pres = catalog("acon")
    rs = complete(pres, 10)
    t, com = pres.gen("t"), bracket(pres)
    graded_kernel(rs, t, "right", 10)
    graded_kernel(rs, com, "right", 10)
    built = len(calls)
    assert built > 0
    assert resolution_check(rs, [t, com, t, com], 10) == (True, None)
    assert resolution_check(rs, [com, t, com, t], 10) == (True, None)
    assert len(calls) == built


def test_kernel_memo_matches_fresh_systems():
    pres = catalog("acon")
    t, com = pres.gen("t"), bracket(pres)
    tb = parse_expr(pres, "t*beta")
    # x*y = 0: y kills x on the right only, so the two sides differ
    monomial = NCPresentation.build([("x", 1), ("y", 1)], relations=[{(0, 1): Fraction(1)}])
    y = monomial.gen("y")
    for p, asks in ((pres, [(t, "right", 10), (com, "left", 8), (t, "right", 7),
                            (tb, "left", 10), (com, "right", 10), (t, "left", 10),
                            (com, "left", 8), (t, "right", 10)]),
                    (monomial, [(y, "right", 10), (y, "left", 10), (y, "right", 10)])):
        shared = complete(p, 10)
        for mult, side, d in asks:
            memo = graded_kernel(shared, mult, side, d)
            fresh = graded_kernel(complete(p, 10), mult, side, d)
            assert memo == fresh, (side, d)


def test_kernel_report_mutation_does_not_leak():
    pres = catalog("acon")
    rs = complete(pres, 8)
    t = pres.gen("t")
    first = graded_kernel(rs, t, "right", 8)
    expected = list(first.dims)
    first.dims[0] = 99
    first.dims.append(5)
    second = graded_kernel(rs, t, "right", 8)
    assert second.dims == expected and second.dims is not first.dims
    assert resolution_check(rs, [t, bracket(pres), t], 8) == (True, None)


def test_add_rule_rejects_inhomogeneous_rule():
    pres = catalog("Cbc")
    rs = RewriteSystem(pres, 3, [])
    with pytest.raises(ValueError, match="homogeneous"):
        rs.add_rule((1, 0), {(0,): Fraction(1)})
    assert rs.rules == []
    with pytest.raises(ValueError, match="homogeneous"):
        RewriteSystem(pres, 3, [((1, 0), {(0, 1): Fraction(1), (0, 0, 1): Fraction(2)})])


def test_add_rule_drops_cached_basis_and_kernels():
    pres = catalog("Cbc")
    rs = RewriteSystem(pres, 3, [])
    com = commutator(pres.gen("b"), pres.gen("c"))
    assert rs.graded_dims(3) == [1, 2, 4, 8]
    assert graded_kernel(rs, com, "right", 3).dims == [0, 0]
    rs.add_rule((1, 0), {(0, 1): Fraction(1)})
    assert rs.graded_dims(3) == complete(pres, 3).graded_dims(3) == [1, 2, 3, 4]
    assert graded_kernel(rs, com, "right", 3).dims == [1, 2]


def test_presentation_equality_hashing_and_immutability():
    acon = catalog("acon")
    twin = NCPresentation(acon.generators, acon.degrees, acon.central, acon.relations)
    assert twin == acon and hash(twin) == hash(acon)
    assert len({acon, twin}) == 1
    assert completed(twin, 6) is completed(acon, 6)
    assert acon != catalog("endG")
    assert acon != NCPresentation(acon.generators, acon.degrees, frozenset(), acon.relations)
    assert acon != acon.generators
    for name in ("generators", "degrees", "central", "relations", "extra"):
        with pytest.raises(AttributeError):
            setattr(acon, name, ())
        with pytest.raises(AttributeError):
            delattr(acon, name)
    assert catalog("acon").generators == ("t", "beta", "gamma")


def linear_find_reduction(rs, word):
    """The rule scan the lhs trie replaces: leftmost position, earliest rule."""
    for pos in range(len(word)):
        for lhs, rhs in rs.rules:
            if word[pos:pos + len(lhs)] == lhs:
                return pos, lhs, rhs
    return None


@pytest.mark.parametrize("name", catalog_names())
def test_indexed_reduction_matches_linear_scan(name):
    pres = catalog(name)
    rs = complete(pres, 8)
    words = [()]
    frontier = [()]
    while frontier:
        frontier = [w + (g,) for w in frontier for g in range(len(pres.generators))
                    if pres.word_degree(w + (g,)) <= 7]
        words.extend(frontier)
    for word in words:
        assert rs._find_reduction(word) == linear_find_reduction(rs, word)
    # again once the basis is grown, when basis words skip the rule scan
    rs.graded_dims(8)
    for word in words:
        assert rs._find_reduction(word) == linear_find_reduction(rs, word)


def test_reduction_prefers_the_earliest_rule_at_the_leftmost_position():
    # hand-made rules where several lhs match at one position: a longer lhs
    # before its own prefix, a repeated lhs, and a lhs inside another
    pres = NCPresentation.build([("x", 1), ("y", 1)])
    one = Fraction(1)
    rules = [((0, 1, 1), {(0, 0, 0): one}), ((0, 1), {(0, 0): one}),
             ((0, 1), {(1, 1): one}), ((1, 1), {(0, 0): -one}), ((1,), {(0,): one})]
    rs = RewriteSystem(pres, 6, rules)
    assert rs.rules == rules
    words = [w for n in range(6) for w in product(range(2), repeat=n)]
    for word in words:
        assert rs._find_reduction(word) == linear_find_reduction(rs, word)
    assert rs._find_reduction((0, 0, 1, 1)) == (1, (0, 1, 1), {(0, 0, 0): one})
    assert rs._find_reduction((1, 1, 0)) == (0, (1, 1), {(0, 0): -one})


@pytest.mark.parametrize("name", catalog_names())
def test_completion_rules_match_linear_scan_completion(name, monkeypatch):
    pres = catalog(name)
    indexed = complete(pres, 8).rules
    monkeypatch.setattr(RewriteSystem, "_find_reduction", linear_find_reduction)
    assert complete(pres, 8).rules == indexed


# -- normal_form against a brute-force rewriter -------------------------------

def brute_normal_form(rs, poly):
    """Rewrite the leftmost reducible word, one rule at a time, to a fixed point.

    Over Fraction, with the linear rule scan: each step takes the smallest
    reducible word in tuple order (whatever its degree) and applies the
    first rule at its leftmost reducible position.  Normal forms are unique
    up to the cutoff, so any such order reaches the same fixed point.
    """
    poly = {w: Fraction(c) for w, c in poly.items() if c}
    while True:
        hits = ((word, linear_find_reduction(rs, word)) for word in sorted(poly))
        word, hit = next(((w, h) for w, h in hits if h is not None), (None, None))
        if hit is None:
            return poly
        pos, lhs, rhs = hit
        coeff = poly.pop(word)
        head, tail = word[:pos], word[pos + len(lhs):]
        poly = combine([(1, poly), (coeff, {head + rw + tail: rc for rw, rc in rhs.items()})])


def random_mixed_poly(rng, words, size):
    """size words of any degree in words, with small int coefficients."""
    return {w: rng.choice((-3, -2, -1, 1, 2, 5)) for w in rng.sample(words, size)}


def words_upto(pres, d):
    out, frontier = [()], [()]
    while frontier:
        frontier = [w + (g,) for w in frontier for g in range(len(pres.generators))
                    if pres.word_degree(w + (g,)) <= d]
        out.extend(frontier)
    return out


def assert_matches_brute_force(rs, poly):
    nf = rs.normal_form(poly)
    assert nf == brute_normal_form(rs, poly)
    # words in decreasing deglex order, and the input's coefficient type
    assert list(nf) == sorted(nf, key=rs.presentation.order_key, reverse=True)
    kinds = {type(c) for c in poly.values()}
    if kinds == {int}:
        assert all(type(c) is int for c in nf.values())
    elif kinds == {Fraction}:
        assert all(type(c) is Fraction for c in nf.values())
    return nf


@pytest.mark.parametrize("name", catalog_names())
def test_normal_form_matches_brute_force_on_mixed_degrees(name):
    pres = catalog(name)
    d = 10 if name == "laufer_target" else 7
    rs = complete(pres, d)
    words = words_upto(pres, d)
    rng = random.Random(f"brute-nf/{name}")
    for trial in range(25):
        poly = random_mixed_poly(rng, words, min(len(words), rng.randint(1, 8)))
        if trial % 2:
            poly = {w: Fraction(c, rng.choice((1, 2, 3))) for w, c in poly.items()}
        assert_matches_brute_force(rs, poly)
    if name == "laufer_target":
        # words of one weighted degree with different lengths: beta*beta and
        # gamma^3 (degree 6), beta*beta*gamma and gamma^4 (degree 8)
        degrees = {pres.word_degree(w) for w in words}
        assert any(len({len(w) for w in words if pres.word_degree(w) == k}) > 1
                   for k in degrees)
        poly = parse_expr(pres, "beta*beta - gamma*gamma*gamma + 3*beta*gamma*gamma"
                                " + gamma*beta*gamma - gamma*gamma + 2*beta")
        assert assert_matches_brute_force(rs, poly) == {(0, 1, 1): Fraction(2),
                                                        (1, 1): Fraction(-1),
                                                        (0,): Fraction(2)}


def test_normal_form_over_fraction_rules_matches_brute_force():
    # 2*y*y*x - 3*x*y*x + x*x*y gives rules with halves; a Fraction input
    # has its denominators cleared once, and an input mixing int and
    # Fraction coefficients reduces to Fraction ones
    pres = NCPresentation.build([("x", 1), ("y", 1)], relations=[
        {(1, 1, 0): Fraction(2), (0, 1, 0): Fraction(-3), (0, 0, 1): Fraction(1)}])
    rs = complete(pres, 7)
    assert any(type(c) is Fraction for _, rhs in rs.rules for c in rhs.values())
    words = words_upto(pres, 7)
    rng = random.Random("brute-nf/fraction-rules")
    for trial in range(30):
        poly = random_mixed_poly(rng, words, rng.randint(1, 8))
        poly = {w: Fraction(c, rng.choice((1, 2, 6))) if trial % 2 or i % 2 == 0 else c
                for i, (w, c) in enumerate(poly.items())}
        nf = assert_matches_brute_force(rs, poly)
        assert all(type(c) is Fraction for c in nf.values())


@pytest.mark.parametrize("name", ["acon", "endG", "laufer_target"])
def test_normal_form_cancels_relation_multiples_across_degrees(name):
    pres = catalog(name)
    rs = complete(pres, 9)
    words = words_upto(pres, 4)
    rng = random.Random(f"brute-cancel/{name}")
    relations = list(map(ncalg.poly_from_key, pres.relations))
    for _ in range(15):
        base = random_mixed_poly(rng, words, 4)
        terms = [(1, base)]
        for _ in range(3):
            rel = rng.choice(relations)
            u, v = rng.choice(words[:8]), rng.choice(words[:8])
            if pres.word_degree(u + v) + pres.poly_degree(rel) <= 9:
                terms.append((rng.choice((-2, 1, 3)), p_mul(p_mul({u: 1}, rel), {v: 1})))
        poly = combine(terms)
        nf = assert_matches_brute_force(rs, poly)
        assert nf == rs.normal_form(base)
        # the relation multiples alone reduce to zero
        assert rs.normal_form(combine([(1, poly), (-1, base)])) == {}
    assert rs.normal_form({}) == {}
    assert rs.normal_form({words[-1]: 0, (): 0}) == {}


def test_normal_form_checks_every_word_against_the_cutoff(monkeypatch):
    pres = catalog("acon")
    rs = complete(pres, 6)

    def no_rewrites(word):
        raise AssertionError("rewrote a word before checking the cutoff")

    monkeypatch.setattr(rs, "_find_reduction", no_rewrites)
    low = {w: 1 for w in words_upto(pres, 3)[1:20]}
    for high in ((0,) * 7, (2, 1) * 4, (1,) * 12):
        for poly in ({high: 1, **low}, {**low, high: Fraction(-1, 2)}, {high: 3}):
            with pytest.raises(ValueError, match="cutoff"):
                rs.normal_form(poly)
    weighted = complete(catalog("laufer_target"), 8)
    monkeypatch.setattr(weighted, "_find_reduction", no_rewrites)
    with pytest.raises(ValueError, match="cutoff"):
        weighted.normal_form({(1, 1): 1, (0, 0, 0): 1})  # gamma*gamma, then degree 9


@pytest.mark.parametrize("name", catalog_names())
def test_completed_rules_decrease_and_keep_degree(name):
    # normal_form reduces one degree at a time by plain tuple order: every
    # rhs word must have its lhs's degree and lie strictly below it
    pres = catalog(name)
    rs = complete(pres, 10)
    for lhs, rhs in rs.rules:
        for word in rhs:
            assert pres.word_degree(word) == pres.word_degree(lhs)
            assert pres.order_key(word) < pres.order_key(lhs)
            assert word < lhs


def rank_by_elimination(rows):
    """Rank of a small Fraction matrix by Gaussian elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def predicted_resolution(rs, maps, d):
    """First failure of A <- A(-e_1) <- ... found by computing every rank directly."""
    pres = rs.presentation
    degs = [pres.poly_degree(m) for m in maps]
    for i in range(len(maps) - 1):
        if rs.normal_form(p_mul(maps[i + 1], maps[i])):
            return False, f"composite of maps {i + 1} and {i} is nonzero"

    def rank(m, k):
        target = rs.basis(k + pres.poly_degree(m))
        rows = []
        for w in rs.basis(k):
            image = rs.normal_form(p_mul({w: Fraction(1)}, m))
            rows.append([image.get(u, Fraction(0)) for u in target])
        return rank_by_elimination(rows)

    for i in range(len(maps) - 1):
        for k in range(d - degs[i] + 1):
            rank_in = rank(maps[i + 1], k - degs[i + 1]) if k >= degs[i + 1] else 0
            if len(rs.basis(k)) - rank(maps[i], k) != rank_in:
                return False, f"not exact at position {i + 1}, degree {k}"
    return True, None


def test_resolution_check_reports_first_failure():
    pres = catalog("acon")
    rs = completed(pres, 6)
    t, beta = pres.gen("t"), pres.gen("beta")
    com = bracket(pres)
    tt = p_mul(t, t)
    cases = {
        "t,t": [t, t],
        "t,c,c": [t, com, com],
        "t,c,tt": [t, com, tt],
        "c,t,cb": [com, t, p_mul(com, beta)],
        "c,tt": [com, tt],
        "t,c,t,c,t": [t, com, t, com, t],
    }
    got = {name: resolution_check(rs, maps, 6) for name, maps in cases.items()}
    assert got == {name: predicted_resolution(rs, maps, 6) for name, maps in cases.items()}
    # each kind of outcome occurs, so the prediction is not vacuous
    assert got["t,t"] == (False, "composite of maps 1 and 0 is nonzero")
    assert got["t,c,c"] == (False, "composite of maps 2 and 1 is nonzero")
    assert got["t,c,tt"] == (False, "not exact at position 2, degree 1")
    assert got["c,t,cb"] == (False, "not exact at position 2, degree 2")
    assert got["t,c,t,c,t"] == (True, None)


def test_fiber_product_standard():
    f_a, f_b = standard_morphisms(6)
    report = fiber_product(f_a, f_b, 6)
    assert report.dims == ACON_DIMS[:7]
    assert report.relations_ok
    assert report.generates


def test_fiber_product_rejects_unmatched_pairs():
    f_a, f_b = standard_morphisms(8)
    a_pres, b_pres = f_a.source.presentation, f_b.source.presentation
    assert fiber_product(f_a, f_b, 8).generates
    # f_a(b) = b but f_b(gamma) = c: the pairs satisfy the relations, yet
    # they do not lie in the fiber product
    swapped = [
        (a_pres.gen("t"), {}),
        (a_pres.gen("b"), b_pres.gen("gamma")),
        (a_pres.gen("c"), b_pres.gen("beta")),
    ]
    report = fiber_product(f_a, f_b, 8, swapped)
    assert report.relations_ok
    assert not report.generates


def test_fiber_product_requires_surjectivity():
    f_a, f_b = standard_morphisms(4)
    broken = Morphism(f_a.source, f_a.target, {
        "t": {},
        "b": {},
        "c": f_a.target.presentation.gen("c"),
    })
    with pytest.raises(ValueError):
        fiber_product(broken, f_b, 4)


def test_morphism_builds_its_table_once(monkeypatch):
    built = []
    map_table = ncalg._map_table
    monkeypatch.setattr(ncalg, "_map_table", lambda *args: built.append(args) or map_table(*args))
    f_a, f_b = standard_morphisms(5)
    assert len(built) == 2
    t, b, c = (f_a.source.presentation.gen(n) for n in ("t", "b", "c"))
    cbc = f_a.target.presentation
    for _ in range(2):
        assert f_a.apply(p_mul(p_mul(b, t), c)) == {}
        assert f_a.apply(p_mul(c, b)) == p_mul(cbc.gen("b"), cbc.gen("c"))
        assert f_a.surjective_upto(5) and f_b.surjective_upto(5)
    assert fiber_product(f_a, f_b, 5).generates
    assert len(built) == 2 + 2  # fiber_product's own two maps from A_con


def test_fiber_product_validates_its_pairs():
    f_a, f_b = standard_morphisms(4)
    a_pres, b_pres = f_a.source.presentation, f_b.source.presentation
    t, b, c = (a_pres.gen(n) for n in ("t", "b", "c"))
    beta, gamma = b_pres.gen("beta"), b_pres.gen("gamma")
    for pairs in ([(t, {}), (p_mul(b, b), p_mul(beta, beta)), (c, gamma)],
                  [(t, {}), (b, combine([(1, beta), (1, p_mul(beta, gamma))])), (c, gamma)]):
        with pytest.raises(ValueError, match="homogeneous"):
            fiber_product(f_a, f_b, 4, pairs)
    assert fiber_product(f_a, f_b, 4, [(t, {}), (b, beta), (c, gamma)]).generates


def test_substitution_identities():
    base = base_coordinates()
    rs = completed(catalog("acon"), 10)
    mapping = acon_dictionary(rs.presentation)
    assert substitute_and_reduce(rs, mapping, hypersurface_polynomial(base), base) == {}
    for name, poly in singular_polynomials(base).items():
        assert substitute_and_reduce(rs, mapping, poly, base) == {}, name
    assert substitute_and_reduce(rs, mapping, base.gen("x"), base) == {}


def test_substitution_validates_degrees():
    base = base_coordinates()
    rs = completed(catalog("acon"), 10)
    mapping = acon_dictionary(rs.presentation)
    mapping["y"] = rs.presentation.gen("t")  # degree 1, needs 2
    with pytest.raises(ValueError):
        substitute_and_reduce(rs, mapping, base.gen("y"), base)


def test_laufer_slice():
    slice_dims, target_dims = laufer_slice(12)
    assert target_dims == [1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0]
    assert slice_dims == target_dims
    # beta^3 dies in the target: beta*gamma^3 = -gamma^3*beta forces it
    target = catalog("laufer_target")
    rs = completed(target, 9)
    beta = target.gen("beta")
    assert rs.normal_form(p_mul(beta, p_mul(beta, beta))) == {}


def test_parse_expr():
    pres = catalog("acon")
    assert parse_expr(pres, "t*(beta*gamma - gamma*beta)") == {
        (0, 1, 2): Fraction(1),
        (0, 2, 1): Fraction(-1),
    }
    assert parse_expr(pres, "1/2*beta + -3") == {(1,): Fraction(1, 2), (): Fraction(-3)}
    assert parse_expr(pres, "-(t - t)") == {}
    # no zero coefficients, as exact.combine would give
    assert parse_expr(pres, "0") == {}
    assert parse_expr(pres, "0/3*beta + 0 + t*0") == {}
    assert parse_expr(pres, "0 - beta") == {(1,): Fraction(-1)}
    for bad in ("beta +", "(beta", "beta)", "qqq", "beta $ t"):
        with pytest.raises(ValueError):
            parse_expr(pres, bad)


def test_normal_form_linear_idempotent():
    pres = catalog("acon")
    rs = completed(pres, 8)
    a = parse_expr(pres, "gamma*beta*beta + 2*t*gamma*beta")
    b = parse_expr(pres, "beta*gamma*gamma - t*t")
    nf_a, nf_b = rs.normal_form(a), rs.normal_form(b)
    assert rs.normal_form(nf_a) == nf_a
    assert rs.normal_form(combine([(1, a), (Fraction(5), b)])) == combine(
        [(1, nf_a), (Fraction(5), nf_b)]
    )


def test_render():
    pres = catalog("acon")
    poly = parse_expr(pres, "beta*gamma - gamma*beta - 1/2")
    assert pres.render(poly) == "-gamma*beta + beta*gamma - 1/2"
    assert pres.render({}) == "0"


# -- the two-sided ideal against a brute-force span ---------------------------

def sparse_rank(vectors):
    """Rank of sparse rational vectors: each is reduced at its largest key
    against pivot rows led by that key, until it vanishes or leads a new one."""
    pivots = {}
    for vec in vectors:
        vec = {w: Fraction(c) for w, c in vec.items() if c}
        while vec:
            top = max(vec)
            if top not in pivots:
                pivots[top] = {w: c / vec[top] for w, c in vec.items()}
                break
            f = vec[top]
            for w, c in pivots[top].items():
                s = vec.get(w, 0) - f * c
                if s:
                    vec[w] = s
                else:
                    vec.pop(w, None)
    return len(pivots)


def brute_ideal_dims(rs, gens, d):
    """dim I_k as the rank of nf(u * g * v) over basis words u, v."""
    pres = rs.presentation
    dims = []
    for k in range(d + 1):
        products = []
        for g in gens:
            e = pres.poly_degree(g)
            for a in range(k - e + 1):
                for u in rs.basis(a):
                    for v in rs.basis(k - e - a):
                        products.append(rs.normal_form(p_mul(p_mul({u: 1}, g), {v: 1})))
        dims.append(sparse_rank(products))
    return dims


def random_cubic(rng, n):
    words = set()
    while len(words) < 3:
        words.add(tuple(rng.randrange(n) for _ in range(3)))
    return {w: Fraction(rng.choice((-2, -1, 1, 2))) for w in sorted(words)}


def ideal_cases():
    acon = catalog("acon")
    yield "acon t", complete(acon, 6), [acon.gen("t")]
    yield "acon [beta, gamma]", complete(acon, 6), [bracket(acon)]
    for name in ("endG", "Cbc"):
        pres = catalog(name)
        rs = complete(pres, 6)
        for seed in range(4):
            rng = random.Random(f"ideal/{name}/{seed}")
            yield f"{name} cubic #{seed}", rs, [random_cubic(rng, len(pres.generators))]
    # in C<x, y>/(x*y), x is right-normal and y only left-normal
    xy = NCPresentation.build([("x", 1), ("y", 1)], relations=[{(0, 1): Fraction(1)}])
    rs = complete(xy, 6)
    yield "x*y = 0, x", rs, [xy.gen("x")]
    yield "x*y = 0, y", rs, [xy.gen("y")]


def assert_ideal_dims_match_brute_force():
    for label, rs, gens in ideal_cases():
        assert ncalg.ideal_dims(rs, gens, 6) == brute_ideal_dims(rs, gens, 6), label


def test_ideal_dims_match_brute_force_span():
    assert_ideal_dims_match_brute_force()
    acon = complete(catalog("acon"), 6)
    assert brute_ideal_dims(acon, [acon.presentation.gen("t")], 6) == [0, 1, 3, 6, 10, 15, 21]


def left_ideal_dims(rs, gens, d):
    """ideal_dims without its g * A_{k - deg g} term: the left ideal of gens."""
    pres = rs.presentation
    seeds = [rs.normal_form(g) for g in gens]
    layers = {}
    for k in range(d + 1):
        candidates = [g for g in seeds if pres.poly_degree(g) == k]
        for i, e in enumerate(pres.degrees):
            candidates += [rs.normal_form(p_mul({(i,): 1}, v)) for v in layers.get(k - e, [])]
        layers[k] = [v for v, in ncalg._independent([(c,) for c in candidates], [rs.basis(k)])]
    return [len(layers[k]) for k in range(d + 1)]


def test_ideal_oracle_catches_a_one_sided_ideal(monkeypatch):
    monkeypatch.setattr(ncalg, "ideal_dims", left_ideal_dims)
    with pytest.raises(AssertionError, match="endG cubic"):
        assert_ideal_dims_match_brute_force()


def seeded_ideal_dims(rs, gens, d):
    """ideal_dims with every gen g seeding all of g * A_{k - deg g}.

    The layered growth that ideal_dims takes for every input that is not a
    single right-normal gen, kept as the reference that ideal_dims must agree
    with.
    """
    pres = rs.presentation
    tables = [ncalg._Products(rs, ncalg._integral(g), "left") for g in gens]
    seeds = [(e, times) for times in tables if (e := pres.poly_degree(times[()])) is not None]
    lefts = [(e, ncalg._Products(rs, {(i,): 1}, "left")) for i, e in enumerate(pres.degrees)]
    layers = {}
    for k in range(d + 1):
        candidates = [times[w] for e, times in seeds if e <= k for w in rs.basis(k - e)]
        for e, times in lefts:
            candidates += [times(v) for v in layers.get(k - e, [])]
        layers[k] = [v for v, in ncalg._independent([(c,) for c in candidates], [rs.basis(k)])]
    return [len(layers[k]) for k in range(d + 1)]


def brute_right_normal(rs, g, d):
    """Whether g * x lies in A_{deg x} * g for every generator x with deg g + deg x <= d,
    by ranks of whole-word normal forms."""
    pres = rs.presentation
    e = pres.poly_degree(g)
    for i, c in enumerate(pres.degrees):
        if e + c <= d:
            ygs = [rs.normal_form(p_mul({y: 1}, g)) for y in rs.basis(c)]
            if sparse_rank(ygs + [rs.normal_form(p_mul(g, {(i,): 1}))]) > sparse_rank(ygs):
                return False
    return True


def left_side_check(rs, times, e, d):
    """The mirror of `_right_normal`: whether x * g lies in g * A_{deg x}.

    Left-normality gives AgA = gA, not Ag, so it cannot license reading
    the ideal off the right kernel; a mutant that checks it instead must fail.
    """
    right = ncalg._Products(rs, times[()], "right")
    for c in sorted(set(rs.presentation.degrees)):
        if e + c > d:
            break
        target = [rs.basis(e + c)]
        span = ncalg._independent([(times[y],) for y in rs.basis(c)], target)
        xg = [(right[(i,)],) for i, deg in enumerate(rs.presentation.degrees) if deg == c]
        if len(ncalg._independent(span + xg, target)) > len(span):
            return False
    return True


def normality_cases():
    """(label, completed system, gen, whether gen is right-normal) at cutoff 12."""
    for name, cubics in (("acon", {0: True, 3: False, 7: False}), ("endG", {0: False, 1: False})):
        pres = catalog(name)
        rs = complete(pres, 12)
        beta = pres.gen("beta")
        if name == "acon":
            yield "acon t", rs, pres.gen("t"), True
        yield f"{name} [beta, gamma]", rs, bracket(pres), True
        yield f"{name} beta^2", rs, p_mul(beta, beta), True
        # acon cubic #0 is t times a quadric, and t kills every commutator
        for seed, normal in cubics.items():
            rng = random.Random(f"normal/{name}/{seed}")
            yield f"{name} cubic #{seed}", rs, random_cubic(rng, len(pres.generators)), normal
    # in C<x, y>/(x*y) both AxA and AyA have dims 0, 1, 2, ...  x is
    # right-normal (x * x = x * x, x * y = 0) but x * A has dims 1, 1, 1, ...;
    # y is the mirror, left-normal only (y * x is not in A * y), and A * y
    # has dims 1, 1, 1, ..., so y must take the layered growth
    xy = NCPresentation.build([("x", 1), ("y", 1)], relations=[{(0, 1): Fraction(1)}])
    rs = complete(xy, 12)
    yield "x*y = 0, x", rs, xy.gen("x"), True
    yield "x*y = 0, y", rs, xy.gen("y"), False


def assert_ideal_dims_match_the_seeded_reference():
    for label, rs, g, _ in normality_cases():
        e = rs.presentation.poly_degree(g)
        for d in sorted({0, 1, 2, e, e + 1, 6, 7, 12}):
            assert ideal_dims(rs, [g], d) == seeded_ideal_dims(rs, [g], d), (label, d)
    # two gens at once, one normal and one not
    acon = catalog("acon")
    rs = complete(acon, 12)
    gens = [acon.gen("t"), random_cubic(random.Random("normal/acon/3"), 3)]
    assert ideal_dims(rs, gens, 12) == seeded_ideal_dims(rs, gens, 12)


def test_ideal_dims_match_the_seeded_reference():
    assert_ideal_dims_match_the_seeded_reference()
    for label, rs, g, normal in normality_cases():
        table = ncalg._Products(rs, ncalg._integral(g), "left")
        e = rs.presentation.poly_degree(g)
        right_normal = ncalg._right_normal(rs, table, e, 12)
        assert right_normal is normal == brute_right_normal(rs, g, 12), label
        if label.startswith("x*y"):
            assert left_side_check(rs, table, e, 12) is not normal
            assert seeded_ideal_dims(rs, [g], 6) == [0, 1, 2, 3, 4, 5, 6]


def test_seeded_reference_catches_a_gen_wrongly_taken_as_normal(monkeypatch):
    monkeypatch.setattr(ncalg, "_right_normal", lambda rs, times, e, d: True)
    with pytest.raises(AssertionError, match="cubic #3"):
        assert_ideal_dims_match_the_seeded_reference()


def test_seeded_reference_catches_a_left_side_normality_check(monkeypatch):
    monkeypatch.setattr(ncalg, "_right_normal", left_side_check)
    with pytest.raises(AssertionError, match=r"x\*y = 0, y"):
        assert_ideal_dims_match_the_seeded_reference()


def test_normal_gens_need_fewer_candidate_rows(monkeypatch):
    acon = catalog("acon")
    rs = complete(acon, 12)
    g = bracket(acon)
    rows = []
    independent = ncalg._independent

    def counting_independent(vectors, bases):
        rows.append(len(vectors))
        return independent(vectors, bases)

    monkeypatch.setattr(ncalg, "_independent", counting_independent)
    dims = seeded_ideal_dims(rs, [g], 12)
    seeded = sum(rows)
    assert seeded == 756
    rows.clear()
    assert ideal_dims(rs, [g], 12) == dims
    # 381 rows for the right kernel of g plus the normality proof's 8
    assert sum(rows) <= 0.6 * seeded, sum(rows)


# -- integer coefficients and the known-irreducible words ---------------------

def test_add_rule_after_basis_reduces_newly_reducible_words():
    pres = catalog("Cbc")
    rs = RewriteSystem(pres, 3, [])
    assert (1, 0) in rs.basis(2)
    assert rs.normal_form({(1, 0): 1}) == {(1, 0): 1}
    rs.add_rule((1, 0), {(0, 1): Fraction(1)})
    assert rs.normal_form({(1, 0): 1}) == {(0, 1): 1}
    assert rs.normal_form({(1, 0, 1): 2}) == {(0, 1, 1): 2}
    assert (1, 0) not in rs.basis(2)


@pytest.mark.parametrize("name, text, expected", [
    ("acon", "gamma*beta*beta + 2*t*gamma*beta",
     {(0, 1, 2): Fraction(2), (1, 1, 2): Fraction(1)}),
    ("acon", "1/2*gamma*gamma*beta*t - 3/4*beta*gamma*gamma*t + gamma*beta*gamma*beta",
     {(0, 1, 2, 2): Fraction(-1, 4), (2, 1, 2, 1): Fraction(1)}),
    ("endG", "gamma*gamma*beta*beta - 1/3*beta*gamma*beta*gamma",
     {(0, 0, 1, 1): Fraction(1), (0, 1, 0, 1): Fraction(-1, 3)}),
    ("Cbc", "c*b*c - 2/5*b*c*c", {(0, 1, 1): Fraction(3, 5)}),
])
def test_normal_form_of_fraction_input_is_fraction(name, text, expected):
    pres = catalog(name)
    rs = complete(pres, 8)
    rs.graded_dims(8)
    nf = rs.normal_form(parse_expr(pres, text))
    assert nf == expected
    assert all(type(c) is Fraction for c in nf.values())


@pytest.mark.parametrize("name", catalog_names())
def test_integer_input_stays_integer(name):
    pres = catalog(name)
    rs = complete(pres, 8)
    rng = random.Random(f"int-nf/{name}")
    words = [w for k in range(9) for w in product(range(len(pres.generators)), repeat=k)
             if pres.word_degree(w) == 6]
    for _ in range(10):
        poly = {w: rng.choice((-3, -1, 1, 2)) for w in rng.sample(words, min(4, len(words)))}
        nf = rs.normal_form(poly)
        assert all(type(c) is int for c in nf.values()), nf
        assert nf == rs.normal_form({w: Fraction(c) for w, c in poly.items()})


@pytest.mark.parametrize("name", catalog_names())
def test_rules_compare_equal_to_fraction_rules(name):
    pres = catalog(name)
    rules = complete(pres, 8).rules
    as_fractions = [(lhs, {w: Fraction(c) for w, c in rhs.items()}) for lhs, rhs in rules]
    assert RewriteSystem(pres, 8, as_fractions).rules == as_fractions == rules
    assert all(type(c) is int for _, rhs in rules for c in rhs.values())
    half = [((1, 0), {(0, 1): Fraction(1, 2)})]
    assert RewriteSystem(NCPresentation.build([("x", 1), ("y", 1)]), 4, half).rules == half


# -- product tables against one normal form per word ---------------------------

def direct_kernel_dims(rs, multiplier, side, d):
    """graded_kernel's dims with one rs.normal_form(p_mul(...)) per basis word."""
    deg = rs.presentation.poly_degree(multiplier)
    dims = []
    for k in range(d - deg + 1):
        images = [rs.normal_form(p_mul({w: 1}, multiplier) if side == "right"
                                 else p_mul(multiplier, {w: 1})) for w in rs.basis(k)]
        dims.append(len(images) - sparse_rank(images))
    return dims


def direct_ideal_dims(rs, gens, d):
    """ideal_dims with one normal form per product g * w and x * v."""
    pres = rs.presentation
    seeds = [nf for nf in map(rs.normal_form, gens) if nf]
    layers = {}
    for k in range(d + 1):
        candidates = [rs.normal_form(p_mul(g, {w: 1}))
                      for g in seeds for w in rs.basis(k - pres.poly_degree(g))]
        for i, e in enumerate(pres.degrees):
            candidates += [rs.normal_form(p_mul({(i,): 1}, v)) for v in layers.get(k - e, [])]
        layers[k] = [v for v, in ncalg._independent([(c,) for c in candidates], [rs.basis(k)])]
    return [len(layers[k]) for k in range(d + 1)]


def evaluate(poly, images):
    """The image of poly in the free algebra, generator i going to images[i]."""
    terms = []
    for word, coeff in poly.items():
        term = {(): coeff}
        for i in word:
            term = p_mul(term, images[i])
        terms.append((1, term))
    return combine(terms)


def direct_apply(f, poly):
    """Morphism.apply as one normal form of the whole image."""
    return f.target.normal_form(evaluate(poly, [f.images[n] for n in f.source.presentation.generators]))


def direct_surjective(f, d):
    """Morphism.surjective_upto with one normal form per word's image."""
    return all(sparse_rank([direct_apply(f, {w: 1}) for w in f.source.basis(k)])
               == len(f.target.basis(k)) for k in range(d + 1))


def direct_fiber(f_a, f_b, d, pairs):
    """fiber_product's (dims, relations_ok, generates), one normal form per product."""
    rs_a, rs_b, rs_c = f_a.source, f_b.source, f_a.target
    dims = [len(rs_a.basis(k)) + len(rs_b.basis(k)) - len(rs_c.basis(k)) for k in range(d + 1)]
    relations_ok = not any(
        rs_a.normal_form(evaluate(rel, [a for a, _ in pairs]))
        or rs_b.normal_form(evaluate(rel, [b for _, b in pairs]))
        for rel in map(ncalg.poly_from_key, catalog("acon").relations))
    generates = dims[0] == 1 and all(direct_apply(f_a, a) == direct_apply(f_b, b) for a, b in pairs)
    layers = {0: [[{(): 1}, {(): 1}]]}
    for k in range(1, d + 1):
        products = [(rs_a.normal_form(p_mul(va, a)), rs_b.normal_form(p_mul(vb, b)))
                    for a, b in pairs for va, vb in layers[k - 1]]
        layers[k] = ncalg._independent(products, [rs_a.basis(k), rs_b.basis(k)])
        generates = generates and len(layers[k]) == dims[k]
    return dims, relations_ok, generates


def degree_two_monomials(pres):
    n = len(pres.generators)
    words = [w for length in (1, 2) for w in product(range(n), repeat=length)]
    return [{w: 1} for w in words if pres.word_degree(w) == 2]


def table_cases():
    """(label, completed system, multipliers, degree): every catalog algebra at
    8 and x*y = 0, whose left and right kernels differ, at 10."""
    for name in catalog_names():
        pres = catalog(name)
        yield name, complete(pres, 8), degree_two_monomials(pres), 8
    xy = NCPresentation.build([("x", 1), ("y", 1)], relations=[{(0, 1): Fraction(1)}])
    yield "x*y = 0", complete(xy, 10), [xy.gen("x"), xy.gen("y")] + degree_two_monomials(xy), 10


def morphism_cases(rs):
    """The identity of rs and the map sending each generator to the first one of its degree."""
    pres = rs.presentation
    first = {e: name for name, e in reversed(list(zip(pres.generators, pres.degrees)))}
    yield Morphism(rs, rs, {name: pres.gen(name) for name in pres.generators})
    yield Morphism(rs, rs, {name: pres.gen(first[e]) for name, e in zip(pres.generators, pres.degrees)})


def fiber_pair_cases(f_a, f_b):
    a, b = f_a.source.presentation, f_b.source.presentation
    t, pb, pc = a.gen("t"), a.gen("b"), a.gen("c")
    beta, gamma = b.gen("beta"), b.gen("gamma")
    yield [(t, {}), (pb, beta), (pc, gamma)]
    yield [(t, {}), (pb, gamma), (pc, beta)]
    yield [(t, {}), (combine([(1, pb), (1, pc)]), combine([(1, beta), (1, gamma)])), (pc, gamma)]
    yield [(t, {}), (pb, beta), (pb, beta)]
    yield [(combine([(1, t), (1, pb)]), beta), (pb, beta), (pc, gamma)]


def test_product_tables_match_direct_normal_forms():
    verdicts = set()
    for label, rs, multipliers, d in table_cases():
        for m in multipliers:
            for side in ("left", "right"):
                got = graded_kernel(rs, m, side, d).dims
                assert got == direct_kernel_dims(rs, m, side, d), (label, m, side)
            assert ideal_dims(rs, [m], d) == direct_ideal_dims(rs, [m], d), (label, m)
        for f in morphism_cases(rs):
            surjective = f.surjective_upto(d)
            assert surjective == direct_surjective(f, d), (label, f.images)
            verdicts.add(("surjective", surjective))
            for m in multipliers:
                assert f.apply(m) == direct_apply(f, m), (label, f.images, m)
    f_a, f_b = standard_morphisms(8)
    for pairs in fiber_pair_cases(f_a, f_b):
        report = fiber_product(f_a, f_b, 8, pairs)
        got = (report.dims, report.relations_ok, report.generates)
        assert got == direct_fiber(f_a, f_b, 8, pairs), pairs
        verdicts.update((("relations_ok", report.relations_ok), ("generates", report.generates)))
    # every verdict occurs both ways, so the comparison is not vacuous
    assert len(verdicts) == 6


def test_kernel_table_makes_one_normal_form_per_entry(monkeypatch):
    pres = catalog("acon")
    rs = complete(pres, 12)
    rs.basis(0)
    calls, rewrites = [], []
    reduce, find_reduction = rs._reduce, rs._find_reduction

    def counting_reduce(work, result):
        calls.append(work)
        return reduce(work, result)

    def counting_find_reduction(word):
        hit = find_reduction(word)
        if hit is not None:
            rewrites.append(word)
        return hit

    monkeypatch.setattr(rs, "_reduce", counting_reduce)
    monkeypatch.setattr(rs, "_find_reduction", counting_find_reduction)
    graded_kernel(rs, pres.gen("t"), "right", 12)
    # the entries are t itself, for the empty word, and w * t for each
    # irreducible word w of degree 1..11; each is one run of the per-degree
    # loop, t's through normal_form and every other straight from the table
    assert len(calls) == 1 + sum(rs.graded_dims(11)[1:]) == 489
    # each entry reduces x * (w' * t), not the whole word w * t, which takes
    # 3380 rule applications over the same words
    assert len(rewrites) == 272


def test_table_entry_above_the_cutoff_raises():
    pres = catalog("acon")
    rs = complete(pres, 4)
    t, beta = pres.gen("t"), pres.gen("beta")
    for side in ("left", "right"):
        table = ncalg._Products(rs, t, side)
        assert pres.poly_degree(table[(1, 2, 1)]) == 4
        with pytest.raises(ValueError, match="expression degree exceeds the rewrite cutoff"):
            table[(1, 2, 1, 2)]
    # a zero entry has no degree and reduces to zero above the cutoff too
    assert ncalg._Products(rs, {}, "left")[(1, 2, 1, 2, 1)] == {}
    with pytest.raises(ValueError, match="expression degree exceeds the rewrite cutoff"):
        Morphism(rs, rs, {"t": t, "beta": beta, "gamma": beta}).apply({(1, 2, 1, 2, 1): 1})
    # the table takes an entry's degree from one word, so its inputs must be homogeneous
    mixed = combine([(1, t), (1, p_mul(t, beta))])
    with pytest.raises(ValueError, match="not homogeneous"):
        ncalg._Products(rs, mixed, "left")
    with pytest.raises(ValueError, match="not homogeneous"):
        ncalg._Products(rs, {(): 1}, "left", [t, mixed, beta])


def test_substitution_matches_direct_normal_forms():
    base = base_coordinates()
    rs = complete(catalog("acon"), 10)
    mapping = acon_dictionary(rs.presentation)
    images = [mapping[name] for name in base.generators]
    exprs = [hypersurface_polynomial(base), *singular_polynomials(base).values()]
    exprs += [p_mul(base.gen(a), base.gen(b)) for a in base.generators for b in base.generators]
    nonzero = 0
    for expr in exprs:
        got = substitute_and_reduce(rs, mapping, expr, base)
        assert got == rs.normal_form(evaluate(expr, images)), base.render(expr)
        nonzero += bool(got)
    assert nonzero > len(exprs) // 2


def bad_map_calls():
    """(label, call, message) for each algebra map with a missing image, an
    image of the wrong degree and an inhomogeneous image."""
    f_a, f_b = standard_morphisms(4)
    rs_a, cbc = f_a.source, f_a.target
    b, c = cbc.presentation.gen("b"), cbc.presentation.gen("c")
    bad_images = {
        "missing": ({"t": {}, "b": b}, "no image for generator 'c'"),
        "wrong degree": ({"t": {}, "b": p_mul(b, b), "c": c},
                         "image of 'b' must be zero or homogeneous of degree 1"),
        "inhomogeneous": ({"t": {}, "b": b, "c": combine([(1, c), (1, p_mul(b, c))])},
                          "image of 'c' must be zero or homogeneous of degree 1"),
    }
    for kind, (images, message) in bad_images.items():
        yield f"Morphism {kind}", lambda images=images: Morphism(rs_a, cbc, images), message

    base = base_coordinates()
    rs = completed(catalog("acon"), 10)
    good = acon_dictionary(rs.presentation)
    t, beta = rs.presentation.gen("t"), rs.presentation.gen("beta")
    bad_dictionaries = {
        "missing": ({k: v for k, v in good.items() if k != "w"}, "no image for generator 'w'"),
        "wrong degree": ({**good, "y": t}, "image of 'y' must be zero or homogeneous of degree 2"),
        "inhomogeneous": ({**good, "t": combine([(1, t), (1, p_mul(t, beta))])},
                          "image of 't' must be zero or homogeneous of degree 1"),
    }
    for kind, (dictionary, message) in bad_dictionaries.items():
        yield (f"substitute_and_reduce {kind}",
               lambda d=dictionary: substitute_and_reduce(rs, d, base.gen("x"), base), message)

    a_pres, b_pres = rs_a.presentation, f_b.source.presentation
    pt, pb, pc = (a_pres.gen(n) for n in ("t", "b", "c"))
    bb, gg = b_pres.gen("beta"), b_pres.gen("gamma")
    bad_pairs = {
        "wrong degree": ([(pt, {}), (pb, p_mul(bb, bb)), (pc, gg)],
                         "image of 'beta' must be zero or homogeneous of degree 1"),
        "inhomogeneous": ([(combine([(1, pt), (1, p_mul(pb, pc))]), {}), (pb, bb), (pc, gg)],
                          "image of 't' must be zero or homogeneous of degree 1"),
    }
    for kind, (pairs, message) in bad_pairs.items():
        yield f"fiber_product {kind}", lambda p=pairs: fiber_product(f_a, f_b, 4, p), message


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=label)
                                            for label, call, message in bad_map_calls()])
def test_every_algebra_map_checks_its_images_once(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_product_tables_store_integral_inputs_as_ints():
    pres = catalog("acon")
    rs = complete(pres, 6)
    t, beta, gamma = (pres.gen(n) for n in ("t", "beta", "gamma"))
    assert all(type(c) is Fraction for c in beta.values())
    for side in ("left", "right"):
        table = ncalg._Products(rs, combine([(1, t), (2, beta)]), side, [t, beta, gamma])
        entries = [table[w] for k in range(4) for w in rs.basis(k)]
        assert any(entries) and all(type(c) is int for e in entries for c in e.values()), side
    # acon_dictionary's v = (beta*gamma + gamma*beta)/2 keeps its Fraction
    v = acon_dictionary(pres)["v"]
    table = ncalg._Products(rs, {(): Fraction(1)}, "left", [t, v, beta])
    assert table.letters[1] == v and {type(c) for c in table[(1,)].values()} == {Fraction}
    assert all(type(c) is int for c in table[(0, 2)].values()) and table[(0, 2)]


def test_is_central_reads_the_cutoff_off_its_tables():
    pres = catalog("acon")
    rs = complete(pres, 4)
    t, beta = pres.gen("t"), pres.gen("beta")
    quartic = p_mul(p_mul(beta, beta), p_mul(beta, beta))
    assert is_central(rs, {}) and is_central(rs, p_mul(t, p_mul(t, t)))
    with pytest.raises(ValueError, match="expression degree exceeds the rewrite cutoff"):
        is_central(rs, quartic)
    with pytest.raises(ValueError, match="expression degree exceeds the rewrite cutoff"):
        is_central(rs, p_mul(p_mul(t, t), p_mul(t, t)))
    # generators are read in order: x fails against y before z's degree 3
    # is read, and raises there once it commutes with y
    gens = [("x", 1), ("y", 1), ("z", 2)]
    free = NCPresentation.build(gens)
    x = free.gen("x")
    assert not is_central(complete(free, 2), x)
    xy = NCPresentation.build(gens, relations=[commutator(x, free.gen("y"))])
    with pytest.raises(ValueError, match="expression degree exceeds the rewrite cutoff"):
        is_central(complete(xy, 2), x)
