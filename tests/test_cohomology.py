import random
from collections import Counter
from math import comb

import pytest

import flopwin.cohomology as cohomology
from flopwin.cohomology import (
    INTERSECTION_BUNDLE_PIECES,
    IRREP_NAMES,
    RES_F_DOWNSTAIRS,
    RES_F_UPSTAIRS,
    RES_G_TERMS,
    afib_vanishing,
    cech_line_cohomology,
    decompose,
    e2_sections,
    ext1_FG_dims,
    irrep_character,
    irrep_from_name,
    koszul_is_complex,
    koszul_lines_consistent,
    koszul_matrices,
    multiplicity,
    multiplicity_in_char,
    pushforward_assembly,
    pv_cohomology,
    pv_line_cohomology,
    s0_invariant_dims,
    semiorthogonality_multiplicities,
    sym_graded,
    sym_multiplicities,
    sym_pieces_expansion,
    verify_resf_pushforward,
    verify_semiorthogonality,
    vstar_section_counts,
)
from flopwin.exact import combine, laurent_mul
from flopwin.ncalg import catalog, hilbert


def test_irrep_characters():
    assert irrep_character((1, 0)) == {(1, 0): 1, (0, 1): 1}
    assert irrep_character((1, 1)) == {(1, 1): 1}
    assert irrep_character((1, -1)) == {(1, -1): 1, (0, 0): 1, (-1, 1): 1}
    with pytest.raises(ValueError):
        irrep_character((0, 1))
    with pytest.raises(ValueError):
        irrep_from_name("W")


def test_clebsch_gordan():
    v = irrep_character((1, 0))
    assert decompose(laurent_mul(v, v)) == {(2, 0): 1, (1, 1): 1}
    vstar = irrep_character((0, -1))
    assert decompose(laurent_mul(v, vstar)) == {(1, -1): 1, (0, 0): 1}


def test_decompose_sym2_of_s2vm1():
    graded = sym_graded([(1, -1)], 2)
    assert decompose(graded[2]) == {(2, -2): 1, (0, 0): 1}


def test_decompose_rejects_non_characters():
    with pytest.raises(ValueError):
        decompose({(1, 0): 1})  # not swap-symmetric
    with pytest.raises(ValueError):
        decompose({(0, 0): -1})


def test_decompose_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        combo = {}
        char = {}
        for _ in range(rng.randint(1, 4)):
            q = rng.randint(-3, 3)
            p = q + rng.randint(0, 4)
            mult = rng.randint(1, 3)
            combo[(p, q)] = combo.get((p, q), 0) + mult
            for w, c in irrep_character((p, q)).items():
                char[w] = char.get(w, 0) + c * mult
        char = {w: c for w, c in char.items() if c}
        assert decompose(char) == dict(sorted(combo.items()))


def quadratic_sym_pieces_expansion(pieces, max_degree):
    """Sym^k(A + w) = sum_i Sym^(k-i)(A) w^i, summed term by term."""
    layers = [Counter({(0, 0, 0): 1})] + [Counter() for _ in range(max_degree)]
    for piece in pieces:
        new = [Counter() for _ in range(max_degree + 1)]
        for k in range(max_degree + 1):
            for i in range(k + 1):
                for (e1, e2, q), cnt in layers[k - i].items():
                    key = (e1 + i * piece[0], e2 + i * piece[1], q + i * piece[2])
                    new[k][key] += cnt
        layers = new
    return layers


def char_add_sym_graded(labels, max_degree):
    """The same expansion on characters, built with exact.combine and exact.laurent_mul."""
    weights = []
    for label in labels:
        weights.extend(irrep_character(irrep_from_name(label) if isinstance(label, str) else label))
    graded = [{(0, 0): 1}] + [{} for _ in range(max_degree)]
    for w1, w2 in weights:
        graded = [
            combine((1, laurent_mul(graded[k - i], {(i * w1, i * w2): 1})) for i in range(k + 1))
            for k in range(max_degree + 1)
        ]
    return dict(enumerate(graded))


def test_sym_pieces_expansion_matches_quadratic_reference():
    rng = random.Random(11)
    for trial in range(40):
        pool = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(3)]
        pieces = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        max_degree = trial % 13
        got = sym_pieces_expansion(pieces, max_degree)
        assert got == quadratic_sym_pieces_expansion(pieces, max_degree), (pieces, max_degree)
        assert all(cnt > 0 for layer in got for cnt in layer.values())
    layers = sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, 9)
    assert layers == quadratic_sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, 9)
    # a negative truncation keeps no degree at all
    assert sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, -1) == []
    assert ext1_FG_dims(-1) == [] and e2_sections(-2) == [] and sym_graded(["V"], -1) == {}


def sliced_cases():
    """(pieces, max_degree, target) triples for the weight-sliced expansion."""
    labels = sorted(IRREP_NAMES.values()) + [(0, -2), (1, -3), (-1, -2), (2, -1)]
    targets = sorted({p + q for p, q in labels} | {-4, 3})
    lists = [[label] for label in labels] + [
        ["V", "Vstar"], ["Vstar", "V"], ["Vstar", "Vstar", "V"], ["V", "Vstar", "S2Vm1"],
        [(1, -3), "V", "D"], ["V", "S2Vm1", "S2Vm1"], [(0, -2), "S2V"]]
    for names in lists:
        pieces = [(e1, e2, 0) for e1, e2 in cohomology._weights_of(names)]
        for target in targets:
            yield pieces, 6, target
    rng = random.Random(14)
    for trial in range(30):
        pieces = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 3))
                  for _ in range(rng.randint(0, 6))]
        yield pieces, trial % 8, rng.randint(-4, 4)
    yield list(INTERSECTION_BUNDLE_PIECES), 9, 0


def assert_sliced_expansion_matches_reference(expand):
    for pieces, max_degree, target in sliced_cases():
        expected = [{key: n for key, n in layer.items() if sum(key) <= target}
                    for layer in quadratic_sym_pieces_expansion(pieces, max_degree)]
        assert expand(pieces, max_degree, target) == expected, (pieces, max_degree, target)


def early_pruned_expansion(pieces, max_degree, target):
    """sym_pieces_expansion pruning one piece too early, before the last negative one."""
    layers = [{(0, 0, 0): 1}] + [{} for _ in range(max_degree)]
    ordered = sorted(pieces, key=sum)
    negative = max(0, sum(1 for piece in ordered if sum(piece) < 0) - 1)
    cohomology._multiply_pieces(layers, ordered[:negative], None)
    layers = [{key: n for key, n in layer.items() if sum(key) <= target} for layer in layers]
    cohomology._multiply_pieces(layers, ordered[negative:], target)
    return layers


def test_sliced_expansion_matches_the_sliced_quadratic_reference():
    assert_sliced_expansion_matches_reference(sym_pieces_expansion)
    # the slice is the whole expansion when the target is above every monomial
    pieces = list(INTERSECTION_BUNDLE_PIECES)
    assert sym_pieces_expansion(pieces, 7, 7) == sym_pieces_expansion(pieces, 7)
    assert sym_pieces_expansion(pieces, -1, 0) == []


def test_pruning_one_piece_early_is_caught():
    with pytest.raises(AssertionError):
        assert_sliced_expansion_matches_reference(early_pruned_expansion)


def test_sym_multiplicities_match_the_whole_character():
    rng = random.Random(15)
    names = sorted(IRREP_NAMES)
    labels = [*IRREP_NAMES, (0, -2), (1, -3), (2, -2), (3, 0)]
    for trial in range(12):
        summands = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        graded = sym_graded(summands, 7)
        for label in labels:
            got = sym_multiplicities(label, summands, 7)
            assert got == multiplicity(label, graded), (label, summands)
    assert sym_multiplicities("O", ["V", "Vstar"], -1) == []
    with pytest.raises(ValueError, match="unknown representation name"):
        sym_multiplicities("O", ["W"], 3)


def test_sliced_series_match_sym_graded_up_to_degree_16():
    summands = ["V", "S2Vm1", "S2Vm1"]
    graded = sym_graded(summands, 16)
    for d in range(17):
        prefix = {k: graded[k] for k in range(d + 1)}
        assert s0_invariant_dims(d) == multiplicity("O", prefix)
        assert afib_vanishing(d) == multiplicity("Vstar", prefix)


def test_sym_graded_matches_char_add_reference():
    rng = random.Random(12)
    names = sorted(IRREP_NAMES)
    for trial in range(30):
        labels = [rng.choice(names) for _ in range(rng.randint(0, 4))]
        if trial % 3 == 0:
            q = rng.randint(-2, 1)
            labels.append((q + rng.randint(0, 3), q))
        max_degree = trial % 9
        assert sym_graded(labels, max_degree) == char_add_sym_graded(labels, max_degree), labels


@pytest.mark.parametrize("name, n", [("Ctbc", 3), ("Cbc", 2), ("afib", 3)])
def test_commutative_hilbert_matches_sym_counts(name, n):
    d = 12
    graded = sym_graded(["O"] * n, d)
    assert hilbert(catalog(name), d) == [sum(graded[k].values()) for k in range(d + 1)]


def test_sym_graded_basics():
    assert sym_graded(["V"], 2)[2] == irrep_character((2, 0))
    empty = sym_graded([], 3)
    assert empty[0] == {(0, 0): 1}
    assert empty[1] == {} and empty[2] == {} and empty[3] == {}


def test_invariants_of_dual_stratum_presentation():
    graded = sym_graded(["Vstar", "S2Vm1", "S2Vm1"], 5)
    dims = multiplicity("O", graded)
    assert dims == [1, 0, 3, 0, 6, 0]


def test_multiplicity_examples():
    pairing = sym_graded(["V", "Vstar"], 2)
    assert multiplicity("O", pairing)[2] == 1
    assert multiplicity("V", sym_graded(["V"], 1))[1] == 1
    assert multiplicity_in_char((1, 0), irrep_character((1, 0))) == 1


def test_afib_vanishing_and_obstruction():
    assert afib_vanishing(15) == [0] * 16
    # every weight has nonnegative determinant weight, so V* cannot occur
    graded = sym_graded(["V", "S2Vm1", "S2Vm1"], 12)
    for char in graded.values():
        assert all(e1 + e2 >= 0 for e1, e2 in char)


def test_s0_invariant_dims():
    dims = s0_invariant_dims(12)
    expected = [comb(k // 2 + 2, 2) if k % 2 == 0 else 0 for k in range(13)]
    assert dims == expected


def test_line_cohomology_examples():
    h0, h1 = pv_line_cohomology(0, 1)
    assert h0 == irrep_character((1, 0)) and h1 == {}
    assert pv_line_cohomology(1, 0) == ({}, {})
    h0, h1 = pv_line_cohomology(2, 0)
    assert h0 == {} and h1 == {(1, 1): 1}


def test_cech_oracle_matches_rule():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert pv_line_cohomology(a, b) == cech_line_cohomology(a, b), (a, b)
            h0, h1 = pv_line_cohomology(a, b)
            assert sum(h0.values()) - sum(h1.values()) == b - a + 1


def test_serre_duality_dimensions():
    for i in range(7):
        _, h1 = pv_line_cohomology(0, -i)
        h0, _ = pv_line_cohomology(0, i - 2)
        assert sum(h1.values()) == sum(h0.values())
    # the equivariant refinement carries the extra determinant twist
    _, h1 = pv_line_cohomology(0, -3)
    ext = {(-2, -2): 1}
    assert h1 == laurent_mul(irrep_character((1, 0)), ext)


def test_pv_cohomology_bundle():
    h0, h1 = pv_cohomology({((1, 0), 0, 1): 1})
    assert h0 == {(2, 0): 1, (1, 1): 1}
    assert h1 == {}
    h0, h1 = pv_cohomology({((0, 0), 0, -2): 3})
    assert h0 == {} and h1 == {(-1, -1): 3}


def reference_graded_sections(twist_pieces, bundle_pieces, max_degree):
    """H0 and H1 characters of twist x Sym^k(bundle) on P(V), per degree k.

    The whole-character section engine, kept as the reference that
    vstar_section_counts must agree with.
    """
    layers = sym_pieces_expansion(bundle_pieces, max_degree)
    h0, h1 = {}, {}
    for k, layer in enumerate(layers):
        char0, char1 = Counter(), Counter()
        for (e1, e2, q), cnt in layer.items():
            for t1, t2, tq in twist_pieces:
                for target, line_char in zip((char0, char1), pv_line_cohomology(0, q + tq)):
                    for (w1, w2), c in line_char.items():
                        target[(w1 + e1 + t1, w2 + e2 + t2)] += c * cnt
        h0[k] = dict(char0)
        h1[k] = dict(char1)
    return h0, h1


def test_vstar_section_counts_match_reference():
    twists = [(e, e, q) for e in range(-2, 2) for q in range(-3, 4)] + [(1, 0, 0), (0, -1, 2)]
    counts = vstar_section_counts(twists, 10)
    expected = [
        multiplicity("Vstar", reference_graded_sections([t], INTERSECTION_BUNDLE_PIECES, 10)[0])
        for t in twists
    ]
    assert counts == expected
    assert any(any(m) for m in counts)


def test_vstar_section_counts_match_per_monomial_reference():
    # one H0 character per monomial of Sym^k, against the per-Q-power memo
    caller_twists = [(0, 0, 1), (0, 0, 0), (-1, -1, 2), (-1, -1, 1)]
    layers = sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, 8)
    for max_degree in range(9):
        expected = []
        for t1, t2, tq in caller_twists:
            per_degree = []
            for layer in layers[: max_degree + 1]:
                total = 0
                for (e1, e2, q), cnt in layer.items():
                    h0 = pv_line_cohomology(0, q + tq)[0]
                    a, b = -e1 - t1, -1 - e2 - t2
                    total += cnt * (h0.get((a, b), 0) - h0.get((a + 1, b - 1), 0))
                per_degree.append(total)
            expected.append(per_degree)
        assert vstar_section_counts(caller_twists, max_degree) == expected
    assert expected[2] == vstar_section_counts([(-1, -1, 2)], 8)[0]
    assert expected[3] == ext1_FG_dims(8)
    assert expected[:2] == list(semiorthogonality_multiplicities(8).values())
    assert any(expected[3])


def unfiltered_vstar_section_counts(twists, max_degree):
    """vstar_section_counts summed over every monomial, with no total-weight filter."""
    layers = sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, max_degree)
    v1, v2 = IRREP_NAMES["Vstar"]
    counts = []
    for t1, t2, tq in twists:
        per_degree = []
        for layer in layers:
            total = 0
            for (e1, e2, q), cnt in layer.items():
                h0 = pv_line_cohomology(0, q + tq)[0]
                a, b = v1 - e1 - t1, v2 - e2 - t2
                total += cnt * (h0.get((a, b), 0) - h0.get((a + 1, b - 1), 0))
            per_degree.append(total)
        counts.append(per_degree)
    return counts


def test_total_weight_filter_matches_unfiltered_counts():
    twists = [(t1, t2, tq) for tq in (-1, 0, 1, 2) for t1 in range(-2, 2) for t2 in range(-2, 2)
              if (t1, t2) != (0, 0)]
    counts = vstar_section_counts(twists, 14)
    assert counts == unfiltered_vstar_section_counts(twists, 14)
    # the filter keeps the contributing monomials: many twists count something
    assert sum(any(per_degree) for per_degree in counts) >= 10
    assert any(m < 0 for per_degree in counts for m in per_degree)
    for d in (0, 1, 5):
        assert vstar_section_counts(twists[:6], d) == unfiltered_vstar_section_counts(twists[:6], d)


def test_sym_pieces_expansion_ignores_the_order_of_its_pieces():
    rng = random.Random(13)
    for trial in range(20):
        pieces = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 3))
                  for _ in range(rng.randint(1, 6))]
        max_degree = 3 + trial % 8
        expected = sym_pieces_expansion(pieces, max_degree)
        for _ in range(3):
            shuffled = rng.sample(pieces, len(pieces))
            got = sym_pieces_expansion(shuffled, max_degree)
            assert got == expected, (pieces, shuffled)
            assert all(type(layer) is dict for layer in got)
            assert all(type(cnt) is int and cnt > 0 for layer in got for cnt in layer.values())
    bundle = list(INTERSECTION_BUNDLE_PIECES)
    assert sym_pieces_expansion(bundle[::-1], 12) == sym_pieces_expansion(bundle, 12)


def test_semiorthogonality():
    report = semiorthogonality_multiplicities(12)
    assert report["Q_twist"] == [0] * 13
    assert report["V_twist"] == [0] * 13
    assert verify_semiorthogonality(12)
    # negative control: constants do appear in the untwisted sections
    plain_h0, _ = reference_graded_sections([(0, 0, 0)], INTERSECTION_BUNDLE_PIECES, 4)
    trivial = multiplicity("O", plain_h0)
    assert trivial[0] == 1 and any(m > 0 for m in trivial[1:])


def test_degree_two_has_no_cohomology():
    q_h0, q_h1 = reference_graded_sections([(0, 0, 1)], INTERSECTION_BUNDLE_PIECES, 4)
    assert multiplicity("Vstar", q_h0)[2] == 0
    assert q_h1[2] == {}


def test_koszul_complex():
    mats = koszul_matrices()
    s_beta, s_gamma = {(1, 0): 1}, {(0, 1): 1}
    assert mats[0] == [[s_beta], [s_gamma], [{}]]
    assert mats[1] == [
        [{}, {}, {(1, 0): -1}],
        [{}, {}, {(0, 1): -1}],
        [{(0, 1): 1}, {(1, 0): -1}, {}],
    ]
    assert mats[2] == [[{(0, 1): -1}, {(1, 0): 1}, {}]]
    assert koszul_is_complex(mats)
    assert koszul_lines_consistent()
    broken = [mats[0], [[s_beta, {}, {}], [{}, {}, {}], [{}, {}, {}]]]
    assert not koszul_is_complex(broken)


def test_ext1_pipeline():
    assert vstar_section_counts([(-1, -1, 2)], 10)[0] == [0] * 11
    dims = ext1_FG_dims(10)
    assert dims == list(range(1, 12))
    assert dims == hilbert(catalog("Cbc"), 10)


def test_e2_sections():
    assert e2_sections(3) == [1, 3, 6, 10]
    assert e2_sections(8) == [comb(m + 2, 2) for m in range(9)]


def test_resolution_terms():
    assert RES_G_TERMS == (((0, -1),), ((0, 0), (1, -1)), ((1, 0),))
    assert RES_F_DOWNSTAIRS == (
        ((1, -1),),
        ((0, 0), (0, 0), (0, 0), (1, 0)),
        ((1, 0),),
    )
    assert RES_F_UPSTAIRS[0] == ((2, 2, -4),)
    assert RES_F_UPSTAIRS[-1] == ((0, 0, 1),)
    # both resolve sheaves supported in positive codimension: rank 0
    for terms in (RES_G_TERMS, RES_F_DOWNSTAIRS):
        ranks = [sum(len(irrep_character(label)) for label in term) for term in terms]
        assert sum((-1) ** i * r for i, r in enumerate(ranks)) == 0
    assert sum((-1) ** i * len(term) for i, term in enumerate(RES_F_UPSTAIRS)) == 0


def test_resf_pushforward():
    assert verify_resf_pushforward()
    assembled = pushforward_assembly(RES_F_UPSTAIRS)
    assert assembled[1] == Counter({(1, -1): 1})
    assert assembled[2] == Counter({(0, 0): 3, (1, 0): 1})
    assert assembled[3] == Counter({(1, 0): 1})
