"""Each cross-engine oracle inside a verify check must be able to fail.

Every test breaks one input of one oracle with a monkeypatched mutant and
expects the owning check to report ok=False with that oracle's message.
"""

from flopwin import cohomology, ncalg, verify


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


def test_resg_class_outside_wall_window_fails_kappa_generators(monkeypatch):
    # Sym^2 V is not among the D:-1 classes O, V, V(-1), Sym^2 V(-1)
    terms = cohomology.RES_G_TERMS[:-1] + (((2, 0),),)
    monkeypatch.setattr(cohomology, "RES_G_TERMS", terms)
    ok, details = verify.check_kappa_generators()
    assert not ok
    assert details == "K-class of resG leaves the D:-1 window"
