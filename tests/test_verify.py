"""Each cross-engine oracle inside a verify check must be able to fail.

Every test breaks one input of one oracle with a monkeypatched mutant and
expects the owning check to report ok=False with that oracle's message.
"""

from flopwin import cli, cohomology, ncalg, quiver, verify
from flopwin.windows import FaceRef, KappaGenerator, WindowSpec
from flopwin.zonotope import Zonotope


def test_wrong_resf_upstairs_term_fails_cohomology_suite(monkeypatch):
    upstairs = cohomology.RES_F_UPSTAIRS[:-1] + (((0, 0, 2),),)
    monkeypatch.setattr(cohomology, "RES_F_UPSTAIRS", upstairs)
    ok, details = verify.check_cohomology_suite()
    assert not ok
    assert "resF upstairs complex" in details


def test_off_by_one_cech_fails_cohomology_suite(monkeypatch):
    original = cohomology.cech_line_cohomology
    monkeypatch.setattr(cohomology, "cech_line_cohomology", lambda a, b: original(a, b + 1))
    ok, details = verify.check_cohomology_suite()
    assert not ok
    assert "Cech" in details


def break_koszul_section(monkeypatch):
    # a third nonzero component shifts the line types away from KOSZUL_DUAL_LINES
    section = (cohomology.S_BETA, cohomology.S_GAMMA, cohomology.S_BETA)
    monkeypatch.setattr(cohomology, "_SECTION", section)


def test_broken_koszul_section_fails_cohomology_suite(monkeypatch):
    break_koszul_section(monkeypatch)
    ok, details = verify.check_cohomology_suite()
    assert not ok
    assert details == "dual Koszul line bookkeeping is inconsistent"


def test_koszul_entry_of_wrong_section_degree_fails_cohomology_suite(monkeypatch, capsys):
    # s_beta^2 keeps d o d = 0 and every line shift, but it is two sections
    # where the one Q^2 D^-1 step between the line types takes one
    section = ({(2, 0): 1}, cohomology.S_GAMMA, {})
    monkeypatch.setattr(cohomology, "_SECTION", section)
    assert cohomology.koszul_is_complex(cohomology.koszul_matrices())
    ok, details = verify.check_cohomology_suite()
    assert not ok
    assert details == "dual Koszul line bookkeeping is inconsistent"
    assert cli.main(["verify", "--suite", "cohomology"]) == 1
    out, _ = capsys.readouterr()
    assert "dual Koszul line bookkeeping is inconsistent" in out


def test_nonzero_degree3_term_fails_cohomology_suite(monkeypatch):
    original = cohomology.vstar_section_counts

    def mutant(twists, max_degree):
        counts = original(twists, max_degree)
        if twists[0] == (-1, -1, 2):
            counts[0][1] += 1
        return counts

    monkeypatch.setattr(cohomology, "vstar_section_counts", mutant)
    ok, details = verify.check_cohomology_suite()
    assert not ok
    assert details == "degree-3 obstruction term does not vanish"


def test_failing_cohomology_suite_exits_1(monkeypatch, capsys):
    break_koszul_section(monkeypatch)
    assert cli.main(["verify", "--suite", "cohomology"]) == 1
    out, err = capsys.readouterr()
    assert "dual Koszul line bookkeeping is inconsistent" in out
    assert "error:" not in err


def test_non_central_image_fails_substitution_laufer(monkeypatch):
    original = ncalg.acon_dictionary

    def mutant(pres):
        mapping = original(pres)
        mapping["t"] = pres.gen("beta")
        return mapping

    monkeypatch.setattr(ncalg, "acon_dictionary", mutant)
    ok, details = verify.check_substitution_laufer()
    assert not ok
    assert details == "image of t is not central"


def test_flipped_sign_fails_substitution_laufer(monkeypatch):
    text = "x*x + u*y*y - 2*v*y*z + w*z*z + (u*w - v*v)*t*t"
    monkeypatch.setattr(ncalg, "hypersurface_polynomial", lambda base: ncalg.parse_expr(base, text))
    ok, details = verify.check_substitution_laufer()
    assert not ok
    assert details == "hypersurface polynomial does not reduce to zero"


def test_flipped_singular_generator_fails_substitution_laufer(monkeypatch):
    original = ncalg.singular_polynomials

    def mutant(base):
        gens = original(base)
        gens["yz-vt^2"] = ncalg.parse_expr(base, "y*z + v*t*t")
        return gens

    monkeypatch.setattr(ncalg, "singular_polynomials", mutant)
    ok, details = verify.check_substitution_laufer()
    assert not ok
    assert details == "singular-locus generator yz-vt^2 does not reduce to zero"


def test_target_without_anticommutator_fails_substitution_laufer(monkeypatch):
    original = ncalg.catalog
    target = ncalg._build((("beta", 3), ("gamma", 2)), (), ("beta*beta - gamma*gamma*gamma",))
    monkeypatch.setattr(
        ncalg, "catalog", lambda name: target if name == "laufer_target" else original(name)
    )
    ok, details = verify.check_substitution_laufer()
    assert not ok
    assert details == ("slice dims [1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0] "
                       "vs target [1, 0, 1, 1, 1, 2, 1, 3, 2, 3, 4, 3, 6]")


def test_resg_class_outside_wall_window_fails_kappa_generators(monkeypatch):
    # Sym^2 V is not among the D:-1 classes O, V, V(-1), Sym^2 V(-1)
    terms = cohomology.RES_G_TERMS[:-1] + (((2, 0),),)
    monkeypatch.setattr(cohomology, "RES_G_TERMS", terms)
    ok, details = verify.check_kappa_generators()
    assert not ok
    assert details == "K-class of resG leaves the D:-1 window"


def test_low_wall_answered_by_the_flop_wall_fails_kappa_generators(monkeypatch):
    original = verify.kappa_generators
    monkeypatch.setattr(verify, "kappa_generators", lambda p, wall, chamber: original(
        p, FaceRef("D", -1), FaceRef("C", 0)))
    ok, details = verify.check_kappa_generators()
    assert not ok
    assert details == ("(D:-2, C:-2) gave {((1, -1), (0, -1)): 'sigma_* O(Q^2 D^-1)', "
                       "((1, 0), (-1, -1)): 'O_S0(V)', ((1, 0), (0, -1)): 'sigma_* O(Q)'}")


def test_flop_wall_answered_by_the_low_wall_fails_kappa_generators(monkeypatch):
    original = verify.kappa_generators
    monkeypatch.setattr(verify, "kappa_generators", lambda p, wall, chamber: original(
        p, FaceRef("D", -2), FaceRef("C", -2)))
    ok, details = verify.check_kappa_generators()
    assert not ok
    assert details == "(D:-1, C:0) gave {((0, 0), (-1, -1)): 'O_S0'}"


def test_unfiltered_cocharacter_fails_kappa_generators(monkeypatch):
    original = verify.kappa_generators

    def mutant(p, wall, chamber):
        # the flop wall keeps a copy of its first generator along (0, 1)
        gens = original(p, wall, chamber)
        if wall.j != -1:
            return gens
        g = gens[0]
        return gens + (KappaGenerator(g.chi_class, (0, 1), g.b_weight, g.chi_name, g.object_name),)

    monkeypatch.setattr(verify, "kappa_generators", mutant)
    ok, details = verify.check_kappa_generators()
    assert not ok
    assert details == "excluded cocharacter (0, 1) appeared"


def test_translated_hexagon_fails_zonotope_hrep(monkeypatch):
    original = verify.nabla
    monkeypatch.setattr(verify, "nabla", lambda p: original(p).translate((1, 0)))
    ok, details = verify.check_zonotope_hrep()
    assert not ok
    assert details == (
        "halfspaces [((-1, -1), Fraction(0, 1)), ((-1, 0), Fraction(0, 1)), "
        "((0, -1), Fraction(1, 1)), ((0, 1), Fraction(1, 1)), ((1, 0), Fraction(2, 1)), "
        "((1, 1), Fraction(2, 1))]")


def test_dropped_vertex_fails_zonotope_hrep(monkeypatch):
    original = verify.nabla

    def mutant(p):
        z = original(p)
        return Zonotope(z.rank, z.halfspaces, z.vertices[1:])

    monkeypatch.setattr(verify, "nabla", mutant)
    ok, details = verify.check_zonotope_hrep()
    assert not ok
    assert details == (
        "vertices [(Fraction(-1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(-1, 1)), "
        "(Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(-1, 1)), "
        "(Fraction(1, 1), Fraction(0, 1))]")


def test_short_eta_fails_the_zonotope_oracle(monkeypatch):
    original = verify.eta
    monkeypatch.setattr(verify, "eta", lambda p, n: original(p, n) - 1)
    ok, details = verify.check_zonotope_hrep()
    assert not ok
    assert details == "oracle violated at direction (-8, -7)"


def test_shifted_eta_fails_zonotope_hrep(monkeypatch):
    original = verify.eta
    monkeypatch.setattr(verify, "eta", lambda p, n: original(p, n) + 1)
    ok, details = verify.check_zonotope_hrep()
    assert not ok
    assert details == "facet bound mismatch at (-1, -1)"


def test_conifold_for_flop_fails_skms_residues(monkeypatch):
    original = verify.load_fixture
    monkeypatch.setattr(verify, "load_fixture", lambda name: original("conifold.json"))
    ok, details = verify.check_skms_residues()
    assert not ok
    assert details == "flop residues ['0'] N=1; conifold N=1"


def test_shifted_window_fails_window_tables(monkeypatch):
    original = verify.window
    monkeypatch.setattr(verify, "window", lambda p, ref: original(p, FaceRef(ref.kind, ref.j + 1)))
    ok, details = verify.check_window_tables()
    assert not ok
    assert details == "window C:-2 gave ⟨O, V(-1)⟩, expected ⟨O(-1), V(-1)⟩"


def test_shifted_big_window_fails_window_tables(monkeypatch):
    original = verify.big_window
    monkeypatch.setattr(verify, "big_window",
                        lambda p, ref: original(p, FaceRef(ref.kind, ref.j + 1)))
    ok, details = verify.check_window_tables()
    assert not ok
    assert details == "big window D:-2 gave ⟨O, V, V(-1), Sym^2V(-1)⟩, expected ⟨O(-1), V(-1), O⟩"


def test_unshifted_classes_fail_window_periodicity(monkeypatch):
    # C:2 keeps its rendered names but reports the classes of C:0
    original = verify.window

    def mutant(p, ref):
        spec = original(p, ref)
        if ref.j != 2:
            return spec
        return WindowSpec(spec.face, original(p, FaceRef("C", 0)).classes, spec.names,
                          spec.lattice, spec.boundary)

    monkeypatch.setattr(verify, "window", mutant)
    ok, details = verify.check_window_tables()
    assert not ok
    assert details == "periodicity fails between C:0 and C:2"


def test_off_by_one_invariants_fail_hilbert_series(monkeypatch):
    # the cutoff one degree short, padded back to length: degree 12 reads 0
    original = cohomology.s0_invariant_dims
    monkeypatch.setattr(cohomology, "s0_invariant_dims", lambda d: original(d - 1) + [0])
    ok, details = verify.check_hilbert_series()
    assert not ok
    assert details == "invariant dims [1, 0, 3, 0, 6, 0, 10, 0, 15, 0, 21, 0, 0]"


def patch_hilbert(monkeypatch, extra):
    """ncalg.hilbert with extra(name) added to every degree of the named catalog algebra."""
    original = ncalg.hilbert
    names = {ncalg.catalog(name): name for name in ncalg.catalog_names()}

    def mutant(p, d):
        return [n + extra(names.get(p)) for n in original(p, d)]

    monkeypatch.setattr(ncalg, "hilbert", mutant)


def test_short_endomorphism_series_fails_hilbert_series(monkeypatch):
    # every series one degree short, padded back to length: endG is checked first
    original = ncalg.hilbert
    monkeypatch.setattr(ncalg, "hilbert", lambda p, d: original(p, d - 1) + [0])
    ok, details = verify.check_hilbert_series()
    assert not ok
    assert details == ("endomorphism dims [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 0]"
                       " vs Ore basis [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49]")


def test_inflated_cbc_fails_the_fiber_identity(monkeypatch):
    patch_hilbert(monkeypatch, lambda name: name == "Cbc")
    ok, details = verify.check_hilbert_series()
    assert not ok
    assert details == "fiber identity fails at degree 0"


def test_common_extra_dimension_fails_the_shift_2_identity(monkeypatch):
    # one extra dimension in both C[t, b, c] and C[b, c] cancels in the fiber
    # identity but not in the shift-2 exact sequence
    patch_hilbert(monkeypatch, lambda name: name in ("Ctbc", "Cbc"))
    ok, details = verify.check_hilbert_series()
    assert not ok
    assert details == "shift-2 exact-sequence identity fails at degree 0"


def test_inflated_acon_and_ctbc_fail_the_acon_table(monkeypatch):
    # one extra dimension in both A_con and C[t, b, c] keeps both identities
    patch_hilbert(monkeypatch, lambda name: name in ("acon", "Ctbc"))
    ok, details = verify.check_hilbert_series()
    assert not ok
    assert details == "contraction algebra dims [2, 4, 8, 13, 20, 28, 38]"


def test_inflated_ideal_fails_graded_kernels(monkeypatch):
    original = ncalg.ideal_dims
    monkeypatch.setattr(ncalg, "ideal_dims",
                        lambda rs, gens, d: [n + 1 for n in original(rs, gens, d)])
    ok, details = verify.check_graded_kernels()
    assert not ok
    assert details == "kernel of right multiplication by t is not the commutator ideal"


def test_inflated_t_ideal_fails_graded_kernels(monkeypatch):
    original = ncalg.ideal_dims

    def mutant(rs, gens, d):
        dims = original(rs, gens, d)
        return [n + 1 for n in dims] if gens == [rs.presentation.gen("t")] else dims

    monkeypatch.setattr(ncalg, "ideal_dims", mutant)
    ok, details = verify.check_graded_kernels()
    assert not ok
    assert details == "kernel of the commutator action is not the t ideal"


def repeat_last_map(monkeypatch, name):
    """resolution_check with its last multiplier replaced by t or by the commutator c."""
    original = ncalg.resolution_check

    def mutant(rs, maps, d):
        gen = rs.presentation.gen
        last = gen("t") if name == "t" else ncalg.commutator(gen("beta"), gen("gamma"))
        return original(rs, list(maps[:-1]) + [last], d)

    monkeypatch.setattr(ncalg, "resolution_check", mutant)


def test_repeated_t_fails_the_t_first_resolution(monkeypatch):
    # [t, c, t, t]: t * t is nonzero; the [c, t, c, t] resolution is unchanged
    repeat_last_map(monkeypatch, "t")
    ok, details = verify.check_graded_kernels()
    assert not ok
    assert details == "resolution [t, c, t, c]: composite of maps 3 and 2 is nonzero"


def test_repeated_commutator_fails_the_commutator_first_resolution(monkeypatch):
    # [c, t, c, c]: the commutator squared is nonzero; [t, c, t, c] is unchanged
    repeat_last_map(monkeypatch, "c")
    ok, details = verify.check_graded_kernels()
    assert not ok
    assert details == "resolution [c, t, c, t]: composite of maps 3 and 2 is nonzero"


def test_swapped_pairs_fail_fiber_product(monkeypatch):
    original = ncalg.fiber_product

    def mutant(f_a, f_b, d):
        # f_a(b) = b but f_b(gamma) = c: the pairs satisfy the relations only
        a_pres, b_pres = f_a.source.presentation, f_b.source.presentation
        swapped = [(a_pres.gen("t"), {}), (a_pres.gen("b"), b_pres.gen("gamma")),
                   (a_pres.gen("c"), b_pres.gen("beta"))]
        return original(f_a, f_b, d, swapped)

    monkeypatch.setattr(ncalg, "fiber_product", mutant)
    ok, details = verify.check_fiber_product()
    assert not ok
    assert details == "pairs do not generate the fiber product"


def test_noncentral_t_image_fails_fiber_product(monkeypatch):
    # t paired with beta: t * beta * gamma - t * gamma * beta maps to
    # beta^2 * gamma - beta * gamma * beta, nonzero in endG
    original = ncalg.fiber_product

    def mutant(f_a, f_b, d):
        a_pres, b_pres = f_a.source.presentation, f_b.source.presentation
        pairs = [(a_pres.gen("t"), b_pres.gen("beta")), (a_pres.gen("b"), b_pres.gen("beta")),
                 (a_pres.gen("c"), b_pres.gen("gamma"))]
        return original(f_a, f_b, d, pairs)

    monkeypatch.setattr(ncalg, "fiber_product", mutant)
    ok, details = verify.check_fiber_product()
    assert not ok
    assert details == "defining relations fail on the generating pairs"


def test_short_fiber_product_fails_fiber_product(monkeypatch):
    # the fiber product one degree short: relations and generation still hold
    original = ncalg.fiber_product
    monkeypatch.setattr(ncalg, "fiber_product", lambda f_a, f_b, d: original(f_a, f_b, d - 1))
    ok, details = verify.check_fiber_product()
    assert not ok
    assert details == ("fiber dims [1, 3, 7, 12, 19, 27, 37, 48, 61, 75]"
                       " vs [1, 3, 7, 12, 19, 27, 37, 48, 61, 75, 91]")


def test_doubled_v_fails_quiver_sweeps(monkeypatch):
    original = quiver.base_map

    def mutant(rep):
        point = original(rep)
        return quiver.BasePoint(point.x, point.y, point.z, point.t, point.u, 2 * point.v, point.w)

    monkeypatch.setattr(quiver, "base_map", mutant)
    ok, details = verify.check_quiver_sweeps()
    assert not ok
    assert details == "base equation nonzero on sample 0"


def test_semistable_scalar_pair_fails_quiver_sweeps(monkeypatch):
    monkeypatch.setattr(quiver, "is_semistable", lambda rep, stability: True)
    ok, details = verify.check_quiver_sweeps()
    assert not ok
    assert details == "scalar-pair sample 0 is semistable"


def test_swapped_stratum_label_fails_quiver_sweeps(monkeypatch):
    original = quiver.stratum
    monkeypatch.setattr(
        quiver, "stratum", lambda rep: "S1" if original(rep) == "semistable" else "semistable"
    )
    ok, details = verify.check_quiver_sweeps()
    assert not ok
    assert details == "stratum label inconsistent on sample 0"
