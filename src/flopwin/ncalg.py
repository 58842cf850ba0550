"""Degree-truncated noncommutative rewriting over the rationals.

Algebras are presented by generators with positive integer degrees, an
optional set of generators declared central, and homogeneous relations.
Words are tuples of generator indices and polynomials are dicts mapping
words to Fraction coefficients.  A presentation is completed into a
rewrite system whose rules are confluent on all words up to a degree
cutoff (truncated Buchberger completion with an exhaustive overlap
check), after which normal forms, graded dimensions, centrality tests,
kernels of multiplication maps, resolution exactness, fiber products and
substitution identities all reduce to exact linear algebra on bases of
irreducible words.

The catalog at the bottom holds the handful of named algebras the rest
of the package verifies statements about.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .exact import echelon, rational

Word = tuple[int, ...]
Poly = dict[Word, Fraction]
PolyKey = tuple[tuple[Word, Fraction], ...]


def poly_key(poly: Poly) -> PolyKey:
    return tuple(sorted((w, c) for w, c in poly.items() if c != 0))


def poly_from_key(key: PolyKey) -> Poly:
    return {w: c for w, c in key}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, Fraction(0)) + c
        if s == 0:
            out.pop(w, None)
        else:
            out[w] = s
    return out


def p_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {w: x * c for w, x in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_scale(b, Fraction(-1)))


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            s = out.get(w, Fraction(0)) + ca * cb
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
    return out


def commutator(a: Poly, b: Poly) -> Poly:
    return p_sub(p_mul(a, b), p_mul(b, a))


@dataclass(frozen=True)
class NCPresentation:
    """Generators with degrees, central generators, homogeneous relations."""

    generators: tuple[str, ...]
    degrees: tuple[int, ...]
    central: frozenset[str]
    relations: tuple[PolyKey, ...]

    @classmethod
    def build(cls, gens: Sequence[tuple[str, int]], central: Iterable[str] = (),
              relations: Iterable[Poly] = ()) -> "NCPresentation":
        names = tuple(n for n, _ in gens)
        degs = tuple(d for _, d in gens)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        if any(d <= 0 for d in degs):
            raise ValueError("generator degrees must be positive")
        cset = frozenset(central)
        if not cset <= set(names):
            raise ValueError("central set names unknown generators")
        pres = cls(names, degs, cset, tuple(poly_key(r) for r in relations))
        for rel in pres.relations:
            if not rel:
                continue
            degrees = {pres.word_degree(w) for w, _ in rel}
            if len(degrees) != 1:
                raise ValueError("relations must be homogeneous")
        return pres

    def gen_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}") from None

    def gen(self, name: str) -> Poly:
        return {(self.gen_index(name),): Fraction(1)}

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[i] for i in word)

    def poly_degree(self, poly: Poly) -> int | None:
        """Degree of a homogeneous polynomial, None for zero."""
        degrees = {self.word_degree(w) for w, c in poly.items() if c != 0}
        if not degrees:
            return None
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degrees.pop()

    def order_key(self, word: Word) -> tuple[int, Word]:
        return (self.word_degree(word), word)

    def all_relations(self) -> list[Poly]:
        """Declared relations plus the implicit central commutators."""
        rels = [poly_from_key(k) for k in self.relations]
        for name in sorted(self.central):
            i = self.gen_index(name)
            for j, _ in enumerate(self.generators):
                if j == i:
                    continue
                rels.append({(i, j): Fraction(1), (j, i): Fraction(-1)})
        return rels

    def render(self, poly: Poly) -> str:
        """Deterministic human-readable form, leading term first."""
        if not poly:
            return "0"
        items = sorted(poly.items(), key=lambda kv: self.order_key(kv[0]), reverse=True)
        parts: list[str] = []
        for word, coeff in items:
            name = "*".join(self.generators[i] for i in word) if word else "1"
            mag = abs(coeff)
            if mag == 1 and word:
                body = name
            else:
                body = f"{mag}*{name}" if word else str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


class RewriteSystem:
    """Rules confluent on words of degree <= cutoff for one presentation."""

    def __init__(self, presentation: NCPresentation, cutoff: int,
                 rules: list[tuple[Word, Poly]]):
        self.presentation = presentation
        self.cutoff = cutoff
        self.rules = rules
        self._basis: dict[int, list[Word]] = {}

    def _find_reduction(self, word: Word) -> tuple[int, Word, Poly] | None:
        for pos in range(len(word)):
            for lhs, rhs in self.rules:
                if word[pos:pos + len(lhs)] == lhs:
                    return pos, lhs, rhs
        return None

    def normal_form(self, poly: Poly) -> Poly:
        pres = self.presentation
        for word in poly:
            if pres.word_degree(word) > self.cutoff:
                raise ValueError("expression degree exceeds the rewrite cutoff")
        work = dict(poly)
        result: Poly = {}
        while work:
            word = max(work, key=pres.order_key)
            coeff = work.pop(word)
            if coeff == 0:
                continue
            hit = self._find_reduction(word)
            if hit is None:
                s = result.get(word, Fraction(0)) + coeff
                if s == 0:
                    result.pop(word, None)
                else:
                    result[word] = s
                continue
            pos, lhs, rhs = hit
            head, tail = word[:pos], word[pos + len(lhs):]
            for rw, rc in rhs.items():
                new = head + rw + tail
                s = work.get(new, Fraction(0)) + coeff * rc
                if s == 0:
                    work.pop(new, None)
                else:
                    work[new] = s
        return result

    def is_irreducible(self, word: Word) -> bool:
        return self._find_reduction(word) is None

    def basis(self, degree: int) -> list[Word]:
        """Irreducible words of exactly the given degree, sorted."""
        if degree > self.cutoff:
            raise ValueError("degree exceeds the rewrite cutoff")
        if not self._basis:
            self._grow_basis()
        return self._basis.get(degree, [])

    def _grow_basis(self) -> None:
        pres = self.presentation
        lhs_list = [lhs for lhs, _ in self.rules]
        per_degree: dict[int, list[Word]] = {0: [()]}
        frontier: list[Word] = [()]
        while frontier:
            nxt: list[Word] = []
            for word in frontier:
                for g in range(len(pres.generators)):
                    new = word + (g,)
                    if pres.word_degree(new) > self.cutoff:
                        continue
                    if any(new[-len(l):] == l for l in lhs_list if len(l) <= len(new)):
                        continue
                    per_degree.setdefault(pres.word_degree(new), []).append(new)
                    nxt.append(new)
            frontier = nxt
        self._basis = {d: sorted(ws) for d, ws in per_degree.items()}

    def graded_dims(self, max_degree: int) -> list[int]:
        return [len(self.basis(k)) for k in range(max_degree + 1)]


def _overlap_words(p: NCPresentation, l1: Word, l2: Word) -> list[tuple[Word, int, int]]:
    """Words admitting a reduction by l1 at one spot and l2 at another.

    Returns (word, pos1, pos2) triples for proper suffix/prefix overlaps of
    l1 against l2 and for containments of l2 inside l1.
    """
    out = []
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k:] == l2[:k]:
            out.append((l1 + l2[k:], 0, len(l1) - k))
    if len(l2) < len(l1):
        for pos in range(len(l1) - len(l2) + 1):
            if l1[pos:pos + len(l2)] == l2:
                out.append((l1, 0, pos))
    return out


def _one_step(rs: RewriteSystem, word: Word, pos: int, lhs: Word, rhs: Poly) -> Poly:
    head, tail = word[:pos], word[pos + len(lhs):]
    return {head + rw + tail: rc for rw, rc in rhs.items()}


def complete(p: NCPresentation, d: int) -> RewriteSystem:
    """Truncated completion: all overlaps of degree <= d resolve.

    Relations (including the implicit central commutators) are oriented by
    the degree-lexicographic order with the presentation's generator order,
    S-polynomials of degree <= d are adjoined until exhausted, and a final
    exhaustive overlap pass asserts confluence below the cutoff.
    """
    relations = p.all_relations()
    for rel in relations:
        deg = p.poly_degree(rel)
        if deg is not None and deg > d:
            raise ValueError("cutoff is below a relation degree")
    rs = RewriteSystem(p, d, [])
    queue: list[Poly] = list(relations)
    while queue:
        poly = rs.normal_form(queue.pop(0))
        if not poly:
            continue
        lead = max(poly, key=p.order_key)
        coeff = poly[lead]
        rhs = {w: -c / coeff for w, c in poly.items() if w != lead}
        rs.rules.append((lead, rhs))
        for other_lhs, other_rhs in list(rs.rules):
            for l1, r1, l2, r2 in ((lead, rhs, other_lhs, other_rhs),
                                   (other_lhs, other_rhs, lead, rhs)):
                for word, pos1, pos2 in _overlap_words(p, l1, l2):
                    if p.word_degree(word) > d:
                        continue
                    s_poly = p_sub(_one_step(rs, word, pos1, l1, r1),
                                   _one_step(rs, word, pos2, l2, r2))
                    if s_poly:
                        queue.append(s_poly)
    for l1, r1 in rs.rules:
        for l2, r2 in rs.rules:
            for word, pos1, pos2 in _overlap_words(p, l1, l2):
                if p.word_degree(word) > d:
                    continue
                diff = p_sub(_one_step(rs, word, pos1, l1, r1),
                             _one_step(rs, word, pos2, l2, r2))
                if rs.normal_form(diff):
                    raise RuntimeError("completion failed to reach confluence")
    return rs


@lru_cache(maxsize=None)
def _completed(p: NCPresentation, d: int) -> RewriteSystem:
    return complete(p, d)


def normal_form(rs: RewriteSystem, expr: Poly) -> Poly:
    return rs.normal_form(expr)


def hilbert(p: NCPresentation, d: int) -> list[int]:
    """Graded dimensions in degrees 0..d by counting irreducible words."""
    return _completed(p, d).graded_dims(d)


def is_central(rs: RewriteSystem, expr: Poly, d: int | None = None) -> bool:
    """True iff the commutator with every generator reduces to zero.

    The degree bound d (default: the cutoff) only limits which generators
    can be tested; commutator degrees must stay within the cutoff.
    """
    pres = rs.presentation
    deg = pres.poly_degree(expr)
    if deg is None:
        return True
    limit = rs.cutoff if d is None else min(d, rs.cutoff)
    for i, _ in enumerate(pres.generators):
        if deg + pres.degrees[i] > limit:
            raise ValueError("centrality check exceeds the degree bound")
        g: Poly = {(i,): Fraction(1)}
        if rs.normal_form(commutator(expr, g)):
            return False
    return True


# -- exact linear algebra on irreducible-word bases ------------------------

def _coords(poly: Poly, index: Mapping[Word, int], size: int) -> list[Fraction]:
    vec = [Fraction(0)] * size
    for w, c in poly.items():
        vec[index[w]] = c
    return vec


def _map_matrix(rs: RewriteSystem, source: list[Word], multiplier: Poly,
                side: str, target_index: Mapping[Word, int]) -> list[list[Fraction]]:
    rows = []
    for w in source:
        unit: Poly = {w: Fraction(1)}
        image = p_mul(unit, multiplier) if side == "right" else p_mul(multiplier, unit)
        rows.append(_coords(rs.normal_form(image), target_index, len(target_index)))
    return rows


@dataclass
class KernelReport:
    dims: list[int]
    witnesses: list[tuple[int, Poly]]


def graded_kernel(rs: RewriteSystem, multiplier: Poly, side: str, d: int) -> KernelReport:
    """Degreewise kernel of one-sided multiplication, with witnesses.

    Kernel dimensions are reported for source degrees k with k + deg(m) <= d;
    the witnesses are spanning kernel vectors of the lowest degree where the
    kernel is nonzero.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    pres = rs.presentation
    deg = pres.poly_degree(multiplier)
    if deg is None:
        raise ValueError("multiplier must be nonzero")
    dims: list[int] = []
    witnesses: list[tuple[int, Poly]] = []
    for k in range(0, d - deg + 1):
        source = rs.basis(k)
        target = rs.basis(k + deg)
        index = {w: i for i, w in enumerate(target)}
        rows = _map_matrix(rs, source, multiplier, side, index)
        # augment with unit vectors: the null tails then span the kernel
        aug = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(len(source))]
               for i in range(len(source))]
        _, _, kernel_rows = echelon(aug, width=len(target))
        dims.append(len(kernel_rows))
        if kernel_rows and not witnesses:
            for combo in kernel_rows:
                poly = {w: c for w, c in zip(source, combo) if c != 0}
                witnesses.append((k, poly))
    return KernelReport(dims, witnesses)


def ideal_dims(rs: RewriteSystem, gens: Sequence[Poly], d: int) -> list[int]:
    """Graded dimensions of the two-sided ideal generated by gens."""
    pres = rs.presentation
    seeds: dict[int, list[Poly]] = {}
    for g in gens:
        nf = rs.normal_form(g)
        deg = pres.poly_degree(nf)
        if deg is not None and deg <= d:
            seeds.setdefault(deg, []).append(nf)
    layers: dict[int, list[Poly]] = {}
    for k in range(d + 1):
        candidates = list(seeds.get(k, []))
        for i, _ in enumerate(pres.generators):
            gdeg = pres.degrees[i]
            unit: Poly = {(i,): Fraction(1)}
            for v in layers.get(k - gdeg, []):
                candidates.append(rs.normal_form(p_mul(unit, v)))
                candidates.append(rs.normal_form(p_mul(v, unit)))
        basis_words = rs.basis(k)
        index = {w: i for i, w in enumerate(basis_words)}
        reduced, _, _ = echelon([_coords(c, index, len(index)) for c in candidates])
        layers[k] = [
            {w: c for w, c in zip(basis_words, row) if c != 0} for row in reduced
        ]
    return [len(layers[k]) for k in range(d + 1)]


def resolution_check(rs: RewriteSystem, multipliers: Sequence[Poly], d: int,
                     shifts: Sequence[int] | None = None) -> tuple[bool, str | None]:
    """Degreewise exactness of A(-s_n) -> ... -> A(-s_1) -> A by right multiplication.

    Checks that consecutive multipliers compose to zero and that at every
    intermediate free module the kernel and image ranks add up to the full
    dimension, degree by degree.  Returns (ok, failure description).
    """
    pres = rs.presentation
    degs = [pres.poly_degree(m) for m in multipliers]
    if any(e is None for e in degs):
        return False, "zero multiplier"
    declared = list(shifts) if shifts is not None else list(degs)
    for i, (e, s) in enumerate(zip(degs, declared)):
        if e != s:
            return False, f"map {i} is not homogeneous of the declared shift"
    for i in range(len(multipliers) - 1):
        if rs.normal_form(p_mul(multipliers[i + 1], multipliers[i])):
            return False, f"composite of maps {i + 1} and {i} is nonzero"
    for i in range(len(multipliers) - 1):
        e_out, e_in = degs[i], degs[i + 1]
        for k in range(0, d - e_out + 1):
            target_out = {w: j for j, w in enumerate(rs.basis(k + e_out))}
            _, pivots_out, _ = echelon(
                _map_matrix(rs, rs.basis(k), multipliers[i], "right", target_out))
            rank_out = len(pivots_out)
            rank_in = 0
            if k >= e_in:
                target_in = {w: j for j, w in enumerate(rs.basis(k))}
                _, pivots_in, _ = echelon(
                    _map_matrix(rs, rs.basis(k - e_in), multipliers[i + 1], "right", target_in))
                rank_in = len(pivots_in)
            if len(rs.basis(k)) - rank_out != rank_in:
                return False, f"not exact at position {i + 1}, degree {k}"
    return True, None


# -- morphisms and the fiber product ---------------------------------------

@dataclass
class Morphism:
    """Graded algebra map given on generators of the source."""

    source: RewriteSystem
    target: RewriteSystem
    images: Mapping[str, Poly]

    def __post_init__(self) -> None:
        spres = self.source.presentation
        tpres = self.target.presentation
        for name in spres.generators:
            if name not in self.images:
                raise ValueError(f"no image for generator {name!r}")
            img = self.images[name]
            deg = tpres.poly_degree(img)
            if deg is not None and deg != spres.degrees[spres.gen_index(name)]:
                raise ValueError(f"image of {name!r} has the wrong degree")

    def apply(self, poly: Poly) -> Poly:
        spres = self.source.presentation
        out: Poly = {}
        for word, coeff in poly.items():
            term: Poly = {(): coeff}
            for idx in word:
                term = p_mul(term, self.images[spres.generators[idx]])
                if not term:
                    break
            out = p_add(out, term)
        return self.target.normal_form(out)

    def surjective_upto(self, d: int) -> bool:
        for k in range(d + 1):
            target = self.target.basis(k)
            if not target:
                continue
            index = {w: i for i, w in enumerate(target)}
            rows = [
                _coords(self.apply({w: Fraction(1)}), index, len(index))
                for w in self.source.basis(k)
            ]
            _, pivots, _ = echelon(rows)
            if len(pivots) < len(target):
                return False
        return True


@dataclass
class FiberReport:
    dims: list[int]
    relations_ok: bool
    generates: bool


def fiber_product(f_a: Morphism, f_b: Morphism, d: int,
                  pairs: Sequence[tuple[Poly, Poly]] | None = None,
                  relation_source: NCPresentation | None = None) -> FiberReport:
    """Degreewise fiber product of two surjections onto a common target.

    dims[k] counts pairs (f, g) with matching images; with both maps
    degreewise surjective this is dim A_k + dim B_k - dim C_k.  The given
    element pairs (defaults: (t,0), (b,beta), (c,gamma)) are checked against
    every relation of relation_source (default: the A_con presentation) and
    must generate the fiber product degree by degree.
    """
    if f_a.target.presentation != f_b.target.presentation:
        raise ValueError("fiber product requires a common target")
    if not f_a.surjective_upto(d) or not f_b.surjective_upto(d):
        raise ValueError("fiber product inputs must be degreewise surjective")
    rs_a, rs_b, rs_c = f_a.source, f_b.source, f_a.target
    dims = [
        len(rs_a.basis(k)) + len(rs_b.basis(k)) - len(rs_c.basis(k))
        for k in range(d + 1)
    ]

    if pairs is None:
        a_pres, b_pres = rs_a.presentation, rs_b.presentation
        pairs = [
            (a_pres.gen("t"), {}),
            (a_pres.gen("b"), b_pres.gen("beta")),
            (a_pres.gen("c"), b_pres.gen("gamma")),
        ]
    if relation_source is None:
        relation_source = catalog("acon")
    if len(pairs) != len(relation_source.generators):
        raise ValueError("one element pair is needed per relation-source generator")

    def eval_pair(word: Word) -> tuple[Poly, Poly]:
        left: Poly = {(): Fraction(1)}
        right: Poly = {(): Fraction(1)}
        for idx in word:
            left = p_mul(left, pairs[idx][0])
            right = p_mul(right, pairs[idx][1])
        return rs_a.normal_form(left), rs_b.normal_form(right)

    relations_ok = True
    for rel_key in relation_source.relations:
        total_a: Poly = {}
        total_b: Poly = {}
        for word, coeff in rel_key:
            pa, pb = eval_pair(word)
            total_a = p_add(total_a, p_scale(pa, coeff))
            total_b = p_add(total_b, p_scale(pb, coeff))
        if rs_a.normal_form(total_a) or rs_b.normal_form(total_b):
            relations_ok = False

    # grow the subalgebra generated by the pairs, degree by degree
    pair_degs = [relation_source.degrees[i] for i in range(len(pairs))]
    layers: dict[int, list[tuple[Poly, Poly]]] = {0: [({(): Fraction(1)}, {(): Fraction(1)})]}
    generates = dims[0] == 1
    for k in range(1, d + 1):
        a_index = {w: i for i, w in enumerate(rs_a.basis(k))}
        b_index = {w: i for i, w in enumerate(rs_b.basis(k))}
        width_a, width_b = len(a_index), len(b_index)
        rows = []
        elements: list[tuple[Poly, Poly]] = []
        for gi, (ga, gb) in enumerate(pairs):
            prev = layers.get(k - pair_degs[gi], [])
            for (va, vb) in prev:
                na = rs_a.normal_form(p_mul(va, ga))
                nb = rs_b.normal_form(p_mul(vb, gb))
                rows.append(_coords(na, a_index, width_a) + _coords(nb, b_index, width_b))
                elements.append((na, nb))
        reduced, _, _ = echelon(rows)
        a_words, b_words = rs_a.basis(k), rs_b.basis(k)
        layers[k] = [
            (
                {w: c for w, c in zip(a_words, row[:width_a]) if c != 0},
                {w: c for w, c in zip(b_words, row[width_a:]) if c != 0},
            )
            for row in reduced
        ]
        if len(reduced) != dims[k]:
            generates = False
    return FiberReport(dims, relations_ok, generates)


# -- substitution into A_con ------------------------------------------------

def base_coordinates() -> NCPresentation:
    """The seven affine coordinates with their induced degrees."""
    return NCPresentation.build(
        [("x", 3), ("y", 2), ("z", 2), ("t", 1), ("u", 2), ("v", 2), ("w", 2)],
        central=["x", "y", "z", "t", "u", "v", "w"],
    )


def acon_dictionary(pres: NCPresentation) -> dict[str, Poly]:
    """Images of the seven coordinates inside A_con; every image is central."""
    t, beta, gamma = pres.gen("t"), pres.gen("beta"), pres.gen("gamma")
    half = Fraction(1, 2)
    return {
        "x": {},
        "y": p_scale(p_mul(t, gamma), Fraction(-1)),
        "z": p_scale(p_mul(t, beta), Fraction(-1)),
        "t": t,
        "u": p_scale(p_mul(beta, beta), Fraction(-1)),
        "w": p_scale(p_mul(gamma, gamma), Fraction(-1)),
        "v": p_scale(p_add(p_mul(beta, gamma), p_mul(gamma, beta)), half),
    }


def substitute_and_reduce(rs: RewriteSystem, dictionary: Mapping[str, Poly],
                          expr: Poly, base: NCPresentation) -> Poly:
    """Normal form of expr after substituting the dictionary images.

    expr lives over the base coordinate presentation; nonzero images must be
    homogeneous of the coordinate's degree, which keeps the substituted
    expression homogeneous whenever expr is.
    """
    tpres = rs.presentation
    for name in base.generators:
        img = dictionary.get(name)
        if img is None:
            raise ValueError(f"dictionary misses coordinate {name!r}")
        deg = tpres.poly_degree(img)
        if deg is not None and deg != base.degrees[base.gen_index(name)]:
            raise ValueError(f"image of {name!r} is not degree-matching")
    total: Poly = {}
    for word, coeff in expr.items():
        term: Poly = {(): coeff}
        for idx in word:
            term = p_mul(term, dictionary[base.generators[idx]])
            if not term:
                break
        total = p_add(total, term)
    return rs.normal_form(total)


def hypersurface_polynomial(base: NCPresentation) -> Poly:
    x, y, z = base.gen("x"), base.gen("y"), base.gen("z")
    t, u, v, w = base.gen("t"), base.gen("u"), base.gen("v"), base.gen("w")
    terms = [
        p_mul(x, x),
        p_mul(u, p_mul(y, y)),
        p_scale(p_mul(v, p_mul(y, z)), Fraction(2)),
        p_mul(w, p_mul(z, z)),
        p_mul(p_sub(p_mul(u, w), p_mul(v, v)), p_mul(t, t)),
    ]
    out: Poly = {}
    for term in terms:
        out = p_add(out, term)
    return out


def singular_polynomials(base: NCPresentation) -> dict[str, Poly]:
    x, y, z = base.gen("x"), base.gen("y"), base.gen("z")
    t, u, v, w = base.gen("t"), base.gen("u"), base.gen("v"), base.gen("w")
    tt = p_mul(t, t)
    return {
        "x": x,
        "uy+vz": p_add(p_mul(u, y), p_mul(v, z)),
        "vy+wz": p_add(p_mul(v, y), p_mul(w, z)),
        "z^2+ut^2": p_add(p_mul(z, z), p_mul(u, tt)),
        "y^2+wt^2": p_add(p_mul(y, y), p_mul(w, tt)),
        "yz-vt^2": p_sub(p_mul(y, z), p_mul(v, tt)),
        "(uw-v^2)t": p_mul(p_sub(p_mul(u, w), p_mul(v, v)), t),
    }


def laufer_slice(d: int) -> tuple[list[int], list[int]]:
    """Weighted dims of the sliced algebra next to its target presentation.

    The slice adds t - gamma^2, beta^2 - t*gamma and beta*gamma + gamma*beta
    to the A_con relations; under weights t=4, beta=3, gamma=2 everything is
    homogeneous and the quotient should match C<beta,gamma>/(beta^2 - gamma^3,
    beta*gamma + gamma*beta) degree by degree.
    """
    F1 = Fraction(1)
    tb, bb, gb = (0,), (1,), (2,)
    relations = [
        # A_con relations under the weighted grading
        {bb + bb + gb: F1, gb + bb + bb: -F1},
        {gb + gb + bb: F1, bb + gb + gb: -F1},
        {tb + bb + gb: F1, tb + gb + bb: -F1},
        # slice relations from the hyperplane cut
        {tb: F1, gb + gb: -F1},
        {bb + bb: F1, tb + gb: -F1},
        {bb + gb: F1, gb + bb: F1},
    ]
    sliced = NCPresentation.build(
        [("t", 4), ("beta", 3), ("gamma", 2)], central=["t"], relations=relations
    )
    return hilbert(sliced, d), hilbert(catalog("laufer_target"), d)


# -- gluing -----------------------------------------------------------------

@dataclass
class GluedAlgebra:
    top_dims: list[int]
    bottom_dims: list[int]
    bimodule_dims: list[int]
    shift: int

    def total(self, k: int) -> int:
        j = k - self.shift
        bim = self.bimodule_dims[j] if 0 <= j < len(self.bimodule_dims) else 0
        return self.top_dims[k] + self.bottom_dims[k] + bim

    def table(self) -> list[list[list[int]]]:
        zero = [0] * len(self.bottom_dims)
        return [[self.top_dims, self.bimodule_dims], [zero, self.bottom_dims]]


def glue(top: NCPresentation, bottom: NCPresentation, bimodule: Sequence[int],
         d: int, shift: int = 0,
         top_quotient: Iterable[Poly] | None = None,
         bottom_quotient: Iterable[Poly] | None = None) -> GluedAlgebra:
    """Upper-triangular dimension table with a bimodule compatibility check.

    When quotient relations are supplied for a side, the dims of that side's
    quotient must reproduce the bimodule dims (the dimension-level check that
    the bimodule carries the expected action from that side).
    """
    bim = list(bimodule)
    if len(bim) < d + 1:
        raise ValueError("bimodule dims are shorter than the requested degree")
    for pres, extra in ((top, top_quotient), (bottom, bottom_quotient)):
        if extra is None:
            continue
        quotient = NCPresentation.build(
            list(zip(pres.generators, pres.degrees)),
            central=pres.central,
            relations=[poly_from_key(k) for k in pres.relations] + list(extra),
        )
        if hilbert(quotient, d) != bim[: d + 1]:
            raise ValueError("bimodule dims are incompatible with the action")
    return GluedAlgebra(hilbert(top, d), hilbert(bottom, d), bim, shift)


# -- expression parsing and the algebra catalog ------------------------------

def parse_expr(pres: NCPresentation, text: str) -> Poly:
    """Parse '+', '-', '*', rational scalars, parentheses and generator names."""
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1].isdigit():
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                tokens.append(text[i:k])
                i = k
            else:
                tokens.append(text[i:j])
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in expression")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> Poly:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            take()
            inner = expr_rule()
            if peek() != ")":
                raise ValueError("unbalanced parenthesis")
            take()
            return inner
        take()
        if tok[0].isdigit():
            return {(): rational(tok)}
        return pres.gen(tok)

    def factor() -> Poly:
        sign = Fraction(1)
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        return p_scale(atom(), sign)

    def term() -> Poly:
        out = factor()
        while peek() == "*":
            take()
            out = p_mul(out, factor())
        return out

    def expr_rule() -> Poly:
        out = term()
        while peek() in ("+", "-"):
            if take() == "+":
                out = p_add(out, term())
            else:
                out = p_sub(out, term())
        return out

    result = expr_rule()
    if pos != len(tokens):
        raise ValueError("trailing tokens in expression")
    return result


def _acon() -> NCPresentation:
    F1 = Fraction(1)
    t, b, g = (0,), (1,), (2,)
    return NCPresentation.build(
        [("t", 1), ("beta", 1), ("gamma", 1)],
        central=["t"],
        relations=[
            {b + b + g: F1, g + b + b: -F1},
            {g + g + b: F1, b + g + g: -F1},
            {t + b + g: F1, t + g + b: -F1},
        ],
    )


def _endg() -> NCPresentation:
    F1 = Fraction(1)
    b, g = (0,), (1,)
    return NCPresentation.build(
        [("beta", 1), ("gamma", 1)],
        relations=[
            {b + b + g: F1, g + b + b: -F1},
            {g + g + b: F1, b + g + g: -F1},
        ],
    )


def _laufer_target() -> NCPresentation:
    F1 = Fraction(1)
    b, g = (0,), (1,)
    return NCPresentation.build(
        [("beta", 3), ("gamma", 2)],
        relations=[
            {b + b: F1, g + g + g: -F1},
            {b + g: F1, g + b: F1},
        ],
    )


_CATALOG = {
    "acon": _acon,
    "endG": _endg,
    "Ctbc": lambda: NCPresentation.build(
        [("t", 1), ("b", 1), ("c", 1)], central=["t", "b", "c"]
    ),
    "Cbc": lambda: NCPresentation.build([("b", 1), ("c", 1)], central=["b", "c"]),
    "afib": lambda: NCPresentation.build(
        [("Tbeta", 1), ("Tgamma", 1), ("Tdelta", 1)],
        central=["Tbeta", "Tgamma", "Tdelta"],
    ),
    "laufer_target": _laufer_target,
}


def catalog(name: str) -> NCPresentation:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown algebra {name!r}; choose from {sorted(_CATALOG)}"
        ) from None
    return builder()


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def standard_morphisms(d: int) -> tuple[Morphism, Morphism]:
    """The two surjections onto C[b,c] used by the fiber product."""
    rs_ctbc = _completed(catalog("Ctbc"), d)
    rs_endg = _completed(catalog("endG"), d)
    rs_cbc = _completed(catalog("Cbc"), d)
    f_a = Morphism(rs_ctbc, rs_cbc, {
        "t": {},
        "b": rs_cbc.presentation.gen("b"),
        "c": rs_cbc.presentation.gen("c"),
    })
    f_b = Morphism(rs_endg, rs_cbc, {
        "beta": rs_cbc.presentation.gen("b"),
        "gamma": rs_cbc.presentation.gen("c"),
    })
    return f_a, f_b


def completed(name_or_pres, d: int) -> RewriteSystem:
    """Catalog-aware completion helper with caching."""
    if isinstance(name_or_pres, str):
        return _completed(catalog(name_or_pres), d)
    return _completed(name_or_pres, d)
