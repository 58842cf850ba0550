from fractions import Fraction
from math import comb

import pytest

from flopwin.ncalg import (
    Morphism,
    NCPresentation,
    acon_dictionary,
    base_coordinates,
    catalog,
    catalog_names,
    commutator,
    complete,
    completed,
    fiber_product,
    glue,
    graded_kernel,
    hilbert,
    hypersurface_polynomial,
    ideal_dims,
    is_central,
    laufer_slice,
    normal_form,
    p_add,
    p_mul,
    p_scale,
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


def test_catalog_names():
    assert catalog_names() == ["Cbc", "Ctbc", "acon", "afib", "endG", "laufer_target"]
    with pytest.raises(ValueError):
        catalog("nope")


def test_completion_rules_acon():
    rs = completed("acon", 6)
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
    for elem in (p_mul(b, b), p_mul(c, c), p_add(p_mul(b, c), p_mul(c, b))):
        assert is_central(rs_g, elem, 12)
    assert not is_central(rs_g, b)


def test_graded_kernels_match_named_ideals():
    pres = catalog("acon")
    rs = completed(pres, 10)
    t = pres.gen("t")
    com = bracket(pres)

    ker_t = graded_kernel(rs, t, "right", 10)
    ideal_com = ideal_dims(rs, [com], 10)
    assert ker_t.dims == ideal_com[:10]
    degree, witness = ker_t.witnesses[0]
    assert degree == 2
    assert rs.normal_form(p_mul(witness, t)) == {}

    ker_com = graded_kernel(rs, com, "right", 10)
    ideal_t = ideal_dims(rs, [t], 10)
    assert ker_com.dims == ideal_t[:9]
    assert ker_com.witnesses[0][0] == 1


def test_kernel_on_free_algebra():
    free = NCPresentation.build([("x", 1), ("y", 1)])
    rs = complete(free, 6)
    report = graded_kernel(rs, free.gen("x"), "right", 6)
    assert report.dims == [0] * 6
    assert report.witnesses == []


def test_periodic_resolutions():
    pres = catalog("acon")
    rs = completed(pres, 10)
    t = pres.gen("t")
    com = bracket(pres)
    ok, why = resolution_check(rs, [t, com, t, com], 10)
    assert ok, why
    ok, why = resolution_check(rs, [com, t, com, t], 10)
    assert ok, why
    bad, why = resolution_check(rs, [t, com, t, com], 10, shifts=[1, 1, 1, 2])
    assert not bad and "map 1" in why
    bad, why = resolution_check(rs, [t, t], 10)
    assert not bad and "composite" in why


def test_fiber_product_standard():
    f_a, f_b = standard_morphisms(6)
    report = fiber_product(f_a, f_b, 6)
    assert report.dims == ACON_DIMS[:7]
    assert report.relations_ok
    assert report.generates


def test_fiber_product_requires_surjectivity():
    f_a, f_b = standard_morphisms(4)
    broken = Morphism(f_a.source, f_a.target, {
        "t": {},
        "b": {},
        "c": f_a.target.presentation.gen("c"),
    })
    with pytest.raises(ValueError):
        fiber_product(broken, f_b, 4)


def test_substitution_identities():
    base = base_coordinates()
    rs = completed("acon", 10)
    mapping = acon_dictionary(rs.presentation)
    assert substitute_and_reduce(rs, mapping, hypersurface_polynomial(base), base) == {}
    for name, poly in singular_polynomials(base).items():
        assert substitute_and_reduce(rs, mapping, poly, base) == {}, name
    assert substitute_and_reduce(rs, mapping, base.gen("x"), base) == {}


def test_substitution_validates_degrees():
    base = base_coordinates()
    rs = completed("acon", 10)
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


def test_glue_table():
    d = 8
    ctbc, endg = catalog("Ctbc"), catalog("endG")
    cbc_dims = hilbert(catalog("Cbc"), d)
    glued = glue(
        ctbc, endg, cbc_dims, d,
        top_quotient=[ctbc.gen("t")],
        bottom_quotient=[bracket(endg)],
    )
    for k in range(d + 1):
        assert glued.total(k) == comb(k + 2, 2) + ENDG_DIMS[k] + (k + 1)
    top_row, bottom_row = glued.table()
    assert top_row == [glued.top_dims, glued.bimodule_dims]
    assert bottom_row[0] == [0] * (d + 1)

    direct = glue(ctbc, endg, [0] * (d + 1), d)
    assert [direct.total(k) for k in range(d + 1)] == [
        comb(k + 2, 2) + ENDG_DIMS[k] for k in range(d + 1)
    ]

    with pytest.raises(ValueError):
        glue(ctbc, endg, cbc_dims, d, top_quotient=[{}])


def test_parse_expr():
    pres = catalog("acon")
    assert parse_expr(pres, "t*(beta*gamma - gamma*beta)") == {
        (0, 1, 2): Fraction(1),
        (0, 2, 1): Fraction(-1),
    }
    assert parse_expr(pres, "1/2*beta + -3") == {(1,): Fraction(1, 2), (): Fraction(-3)}
    assert parse_expr(pres, "-(t - t)") == {}
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
    assert rs.normal_form(p_add(a, p_scale(b, Fraction(5)))) == p_add(
        nf_a, p_scale(nf_b, Fraction(5))
    )


def test_render():
    pres = catalog("acon")
    poly = parse_expr(pres, "beta*gamma - gamma*beta - 1/2")
    assert pres.render(poly) == "-gamma*beta + beta*gamma - 1/2"
    assert pres.render({}) == "0"
