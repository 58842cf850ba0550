"""algebra-ladder: in-process rewriting, exact elimination and cohomology counts.

flopwin.ncalg and flopwin.cohomology run; quiver stays idle.  Every round
starts from `ncalg.complete` (never the cached `completed`), so each round
pays completion as a fresh CLI call would.  One round is
  * on acon at each degree of LADDER: complete, graded dimensions,
    graded_kernel by t and by [beta, gamma], ideal_dims of both and
    resolution_check in both orders;
  * fiber_product of the standard morphisms C[t,b,c] -> C[b,c] <- endG at
    degree FIBER;
  * QUOTIENTS seeded random homogeneous cubic relations on each of acon and
    endG: completion of the new presentation at degree SIDE against
    ideal_dims of the relation in the old one;
  * normal forms at degree SIDE of EXPRESSIONS seeded expressions on each
    of the five catalog algebras of degree-1 generators, plus MULTIPLES
    seeded two-sided multiples of the defining relations of acon and endG
    each (more than half of the operations, so op_p50_ms is a normal form
    while op_tail_ms and wall_s are set by the elimination);
  * sym_graded of seeded summand lists and s0_invariant_dims, ext1_FG_dims,
    afib_vanishing and verify_semiorthogonality at degree COHOMOLOGY.
"""
from __future__ import annotations

import random
from fractions import Fraction

import oracles

IMPORTS = "import flopwin.ncalg, flopwin.cohomology"
LADDER = (6, 8, 10, 12)
FIBER, COHOMOLOGY = 10, 20
SIDE = 8  # degree of the quotients and normal forms; must be on LADDER, which completes acon
QUOTIENTS, EXPRESSIONS, MULTIPLES = 2, 20, 10
NF_ALGEBRAS = ("Ctbc", "Cbc", "afib", "acon", "endG")
COMMUTATIVE = ("Ctbc", "Cbc", "afib")
SYM_LISTS = 2


def _linear(rng, n: int) -> dict:
    """A nonzero linear form with small integer coefficients."""
    while True:
        form = {(i,): Fraction(rng.randint(-2, 2)) for i in range(n)}
        form = {w: c for w, c in form.items() if c}
        if form:
            return form


def random_expression(rng, n: int, factors: int = 3, terms: int = 2) -> dict:
    """A homogeneous sum of scaled products of linear forms in n generators."""
    out: dict = {}
    for _ in range(terms):
        prod = {(): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))}
        for _ in range(factors):
            prod = oracles.poly_mul(prod, _linear(rng, n))
        out = oracles.poly_add(out, prod)
    return out or {(0,) * factors: Fraction(1)}


def random_word(rng, n: int, length: int) -> dict:
    return {tuple(rng.randrange(n) for _ in range(length)): Fraction(1)}


def relation_multiple(rng, relations, n: int, max_side: int = 2) -> dict:
    """u * r * v for a defining relation r and random words u, v."""
    rel = rng.choice(relations)
    left = random_word(rng, n, rng.randint(0, max_side))
    right = random_word(rng, n, rng.randint(0, max_side))
    return oracles.poly_mul(oracles.poly_mul(left, rel), right)


def random_cubic(rng, n: int) -> dict:
    words = set()
    while len(words) < 3:
        words.add(tuple(rng.randrange(n) for _ in range(3)))
    return {w: Fraction(rng.choice((-2, -1, 1, 2))) for w in sorted(words)}


def build(seed: int, workdir: str) -> dict:
    from flopwin import cohomology, ncalg

    rng = random.Random(f"algebra-ladder/{seed}")
    pres = {name: ncalg.catalog(name) for name in NF_ALGEBRAS}
    quotients = [(name, random_cubic(rng, len(pres[name].generators)))
                 for name in ("acon", "endG") for _ in range(QUOTIENTS)]
    expressions = [(name, random_expression(rng, len(pres[name].generators)))
                   for name in NF_ALGEBRAS for _ in range(EXPRESSIONS)]
    multiples = [(name, relation_multiple(rng, pres[name].all_relations(),
                                          len(pres[name].generators)))
                 for name in ("acon", "endG") for _ in range(MULTIPLES)]
    names = sorted(cohomology.IRREP_NAMES)
    sym_lists = [["V", "S2Vm1", "S2Vm1"]] + [
        [rng.choice(names) for _ in range(rng.randint(2, 3))] for _ in range(SYM_LISTS)]
    return {"pres": pres, "quotients": quotients, "expressions": expressions,
            "multiples": multiples, "sym_lists": sym_lists}


def matrix_cells(sizes, d: int) -> int:
    """Cells of the multiplication matrices that graded_kernel (by t and by the
    commutator) and both resolution checks assemble at cutoff d, computed from
    the basis sizes; ideal_dims is left out because its row count is internal."""
    def kernel(e):
        return sum(sizes[k] * sizes[k + e] for k in range(d - e + 1))

    def resolution(degs):
        cells = 0
        for e_out, e_in in zip(degs, degs[1:]):
            for k in range(d - e_out + 1):
                cells += sizes[k] * sizes[k + e_out]
                cells += sizes[k - e_in] * sizes[k] if k >= e_in else 0
        return cells

    return kernel(1) + kernel(2) + resolution((1, 2, 1, 2)) + resolution((2, 1, 2, 1))


def run_round(inputs: dict, run) -> None:
    from flopwin import cohomology, ncalg

    def attempt(op_id, kind, body, check):
        """Time body() as one operation, then settle it with check(result)."""
        try:
            with run.op(kind):
                result = body()
        except (ArithmeticError, ValueError, RuntimeError, KeyError) as exc:
            run.settle(op_id, f"{type(exc).__name__}: {exc}")
            return None
        run.settle(op_id, check(result))
        return result

    acon = inputs["pres"]["acon"]
    t = acon.gen("t")
    com = ncalg.commutator(acon.gen("beta"), acon.gen("gamma"))
    systems = {}
    top = LADDER[-1]
    for d in LADDER:
        tag = "top" if d == top else f"d{d}"
        rs = attempt(f"complete acon d={d}", "complete",
                     lambda: run.call("ncalg.complete", ncalg.complete, acon, d), lambda r: None)
        if rs is None:
            continue
        systems[("acon", d)] = rs
        dims = attempt(f"dims acon d={d}", "basis",
                       lambda: run.call("ncalg.graded_dims", rs.graded_dims, d),
                       lambda r: oracles.check_dims("acon", r, oracles.acon_dims(d)))
        run.count("ncalg.complete.rules", len(rs.rules))
        if dims is not None:
            run.count("ncalg.basis.words", sum(dims))
            run.count("ncalg.matrix_cells", matrix_cells(dims, d))
        for label, mult, want in (("t", t, oracles.kernel_t_dims(d)),
                                  ("commutator", com, oracles.kernel_c_dims(d))):
            attempt(f"kernel {label} d={d}", f"kernel.{tag}",
                    lambda: run.call("ncalg.graded_kernel", ncalg.graded_kernel, rs, mult, "right", d),
                    lambda r: oracles.check_dims(f"ker {label}", r.dims, want))
        for label, gen, want in (("commutator", com, oracles.commutator_ideal_dims(d)),
                                 ("t", t, oracles.ideal_t_dims(d))):
            attempt(f"ideal {label} d={d}", f"ideal.{tag}",
                    lambda: run.call("ncalg.ideal_dims", ncalg.ideal_dims, rs, [gen], d),
                    lambda r: oracles.check_dims(f"ideal {label}", r, want))
        for label, maps in (("t,c", [t, com, t, com]), ("c,t", [com, t, com, t])):
            attempt(f"resolution {label} d={d}", f"resolution.{tag}",
                    lambda: run.call("ncalg.resolution_check", ncalg.resolution_check, rs, maps, d),
                    lambda r: None if r == (True, None) else f"resolution not exact: {r}")

    def fiber():
        ctbc, endg, cbc = (run.call("ncalg.complete", ncalg.complete, ncalg.catalog(n), FIBER)
                           for n in ("Ctbc", "endG", "Cbc"))
        gen = cbc.presentation.gen
        f_a = ncalg.Morphism(ctbc, cbc, {"t": {}, "b": gen("b"), "c": gen("c")})
        f_b = ncalg.Morphism(endg, cbc, {"beta": gen("b"), "gamma": gen("c")})
        return run.call("ncalg.fiber_product", ncalg.fiber_product, f_a, f_b, FIBER)

    def fiber_check(rep):
        if not (rep.relations_ok and rep.generates):
            return f"relations_ok={rep.relations_ok} generates={rep.generates}"
        return oracles.check_dims("fiber product", rep.dims, oracles.acon_dims(FIBER))

    attempt(f"fiber product d={FIBER}", "fiber", fiber, fiber_check)

    for name in ("endG",) + COMMUTATIVE:
        pres = inputs["pres"][name]
        rs = attempt(f"complete {name} d={SIDE}", "complete",
                     lambda: run.call("ncalg.complete", ncalg.complete, pres, SIDE), lambda r: None)
        if rs is not None:
            systems[(name, SIDE)] = rs
    for i, (name, rel) in enumerate(inputs["quotients"]):
        base = inputs["pres"][name]
        rs = systems.get((name, SIDE))
        if rs is None:
            continue
        qpres = ncalg.NCPresentation.build(
            list(zip(base.generators, base.degrees)), central=base.central,
            relations=[ncalg.poly_from_key(k) for k in base.relations] + [rel])

        def quotient_dims(qpres=qpres):
            qrs = run.call("ncalg.complete", ncalg.complete, qpres, SIDE)
            return run.call("ncalg.graded_dims", qrs.graded_dims, SIDE)

        qdims = attempt(f"quotient {name} #{i}", "quotient", quotient_dims, lambda r: None)
        whole = oracles.HILBERT[name](SIDE)
        attempt(f"quotient ideal {name} #{i}", "ideal",
                lambda: run.call("ncalg.ideal_dims", ncalg.ideal_dims, rs, [rel], SIDE),
                lambda r: None if qdims is None else oracles.check_dims(
                    f"{name}/(r)", qdims, [whole[k] - r[k] for k in range(SIDE + 1)]))

    for i, (name, expr) in enumerate(inputs["expressions"]):
        rs = systems.get((name, SIDE))
        if rs is None:
            continue
        names = rs.presentation.generators

        def reduce_twice(rs=rs, expr=expr):
            first = run.call("ncalg.normal_form", ncalg.normal_form, rs, expr)
            return first, run.call("ncalg.normal_form", ncalg.normal_form, rs, first)

        def check(pair, expr=expr, names=names, name=name):
            first, again = pair
            if again != first:
                return "normal form is not idempotent"
            if name in COMMUTATIVE:
                return oracles.check_commutative_normal_form(expr, first, names)
            return oracles.check_quotient_image(expr, first)

        attempt(f"normal form {name} #{i}", "normal_form", reduce_twice, check)
    for i, (name, expr) in enumerate(inputs["multiples"]):
        rs = systems.get((name, SIDE))
        if rs is None:
            continue
        attempt(f"relation multiple {name} #{i}", "normal_form",
                lambda: run.call("ncalg.normal_form", ncalg.normal_form, rs, expr),
                lambda r: None if r == {} else f"multiple of a relation reduces to {r}")

    for i, names in enumerate(inputs["sym_lists"]):
        n = len(oracles.weights(names))

        def sym_check(graded, n=n):
            run.count("cohomology.char_terms", sum(len(graded[k]) for k in graded))
            totals = [sum(graded[k].values()) for k in range(COHOMOLOGY + 1)]
            return oracles.check_dims("Sym totals", totals, oracles.sym_total_dims(n, COHOMOLOGY))

        attempt(f"sym_graded {names}", "sym_graded",
                lambda: run.call("cohomology.sym_graded", cohomology.sym_graded, names, COHOMOLOGY),
                sym_check)
    d = COHOMOLOGY
    for fn, want in ((cohomology.s0_invariant_dims, oracles.even_series(d)),
                     (cohomology.ext1_FG_dims, oracles.cbc_dims(d)),
                     (cohomology.afib_vanishing, [0] * (d + 1)),
                     (cohomology.verify_semiorthogonality, True)):
        attempt(f"{fn.__name__} d={d}", "cohomology",
                lambda: run.call("cohomology." + fn.__name__, fn, d),
                lambda r: None if r == want else f"{fn.__name__} gave {r}")


def report(run) -> dict:
    top = [f"{k}.top" for k in ("kernel", "ideal", "resolution")]
    return {"top_degree_check_s": (run.round_median(top), "s")}
