"""Degree-truncated noncommutative rewriting over the rationals.

Algebras are presented by generators with positive integer degrees, an
optional set of generators declared central, and homogeneous relations.
Words are tuples of generator indices and polynomials are dicts mapping
words to rational coefficients, int or Fraction, summed by `exact.combine`
and multiplied by concatenating words (`p_mul`).  `complete` turns a
presentation into rewrite rules whose normal forms are unique on all words
up to a degree cutoff (truncated Buchberger completion; its final pass over
the S-polynomials it kept asserts confluence, Bergman's diamond lemma).
Graded dimensions, centrality, kernels of multiplication maps, ideals,
resolutions, fiber products and substitution identities are then exact
linear algebra on bases of irreducible words.

Kernels, ideals, centrality, fiber products and algebra maps never reduce
a product with a word from scratch.  `_Products` builds it from the product
a letter shorter, w * m = x * (w' * m) or m * w = (m * w'') * y, in a table
that lives for one call (for a `Morphism`, as long as the map); that is exact
because normal forms are unique up to the cutoff.  Every algebra map on
generators is one left table of 1, built and checked by `_map_table`;
`is_central` compares a left and a right table.
The ideal of one right-normal element g (g A in A g, as for the normal t
and [beta, gamma] of A_con) is A g, so its dims are read off the right
kernel of g, which the kernel memo holds once the kernel of g was asked
for; any other ideal is grown layer by layer.

`normal_form` reduces its input one degree at a time, highest first: rules
are homogeneous, so a rewrite never leaves its degree, and inside one degree
the plain tuple order of words is the deglex order the rules are oriented
by.  A `_Products` entry is homogeneous by construction, so the table hands
it straight to that per-degree loop.

Integral data stays integral: rules and `_Products` inputs store integral
coefficients as ints, so int input has int normal forms, and Fraction input
is reduced over ints after its denominators are cleared once.  Ranks and
independent vectors come from one `exact.echelon` pass (`_independent`).
Graded kernels are memoised per (multiplier, side, degree), and the rule
scan per word (a grown basis marks its words irreducible); `add_rule` drops
both memos and the basis together.

The catalog at the bottom holds the named algebras the rest of the package
verifies statements about.  Every fixed polynomial here, catalog relations
included, is written as text and read by `parse_expr`.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

from .exact import _Record, combine, echelon, rational

Word = tuple[int, ...]
Poly = dict[Word, int | Fraction]
PolyKey = tuple[tuple[Word, int | Fraction], ...]


def poly_key(poly: Poly) -> PolyKey:
    return tuple(sorted((w, c) for w, c in poly.items() if c != 0))


def poly_from_key(key: PolyKey) -> Poly:
    return {w: c for w, c in key}


def _integral(poly: Poly) -> Poly:
    """poly with each integral coefficient as an int."""
    return {w: c.numerator if c.denominator == 1 else c for w, c in poly.items()}


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            s = ca * cb
            if w in out:
                s += out[w]
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
    return out


def commutator(a: Poly, b: Poly) -> Poly:
    return combine([(1, p_mul(a, b)), (-1, p_mul(b, a))])


class NCPresentation(_Record):
    """Generators with degrees, central generators, homogeneous relations.

    Immutable, and equal and hashed by its four fields, so that it can key
    the completion cache.
    """

    __slots__ = ("generators", "degrees", "central", "relations")

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
        return sum(map(self.degrees.__getitem__, word))

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


_UNSCANNED = object()


class RewriteSystem:
    """Rules confluent on words of degree <= cutoff for one presentation."""

    def __init__(self, presentation: NCPresentation, cutoff: int,
                 rules: list[tuple[Word, Poly]]):
        self.presentation = presentation
        self.cutoff = cutoff
        # a word's degree: its length when every generator has degree 1
        self._word_degree = len if set(presentation.degrees) == {1} else presentation.word_degree
        self.rules: list[tuple[Word, Poly]] = []
        # the left-hand sides as a trie of generator indices; the node ending
        # a lhs holds (index of the first rule with that lhs, lhs, rhs) under None
        self._trie: dict = {}
        self._basis: dict[int, list[Word]] = {}
        # the answer of _find_reduction for every word it has scanned, and
        # None for every basis word, so no word is scanned twice
        self._reductions: dict[Word, tuple[int, Word, Poly] | None] = {}
        # graded_kernel dimensions keyed by (poly_key(multiplier), side, d)
        self._kernels: dict[tuple[PolyKey, str, int], list[int]] = {}
        for lhs, rhs in rules:
            self.add_rule(lhs, rhs)

    def add_rule(self, lhs: Word, rhs: Poly) -> None:
        """Append lhs -> rhs to the rules and to the lhs trie.

        Every rhs word must have the degree of lhs, so that a rewrite keeps
        the degree of the word it rewrites.  Integral coefficients are stored
        as ints.  The basis, the memoised rule scans and the kernels
        computed so far are dropped.
        """
        degree = self._word_degree(lhs)
        if any(self._word_degree(w) != degree for w in rhs):
            raise ValueError("rewrite rule is not homogeneous")
        rhs = _integral(rhs)
        self._basis = {}
        self._reductions = {}
        self._kernels = {}
        node = self._trie
        for g in lhs:
            node = node.setdefault(g, {})
        node.setdefault(None, (len(self.rules), lhs, rhs))
        self.rules.append((lhs, rhs))

    def _find_reduction(self, word: Word) -> tuple[int, Word, Poly] | None:
        """Leftmost reducible position, then the earliest rule applying there.

        The answer is memoised per word until `add_rule`.
        """
        found = self._reductions.get(word, _UNSCANNED)
        if found is not _UNSCANNED:
            return found
        n = len(word)
        for pos in range(n):
            node, best = self._trie, None
            for q in range(pos, n):
                node = node.get(word[q])
                if node is None:
                    break
                hit = node.get(None)
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
            if best is not None:
                found = pos, best[1], best[2]
                break
        else:
            found = None
        self._reductions[word] = found
        return found

    def normal_form(self, poly: Poly) -> Poly:
        """The normal form of poly: rewrite its largest pending word until none is left.

        Words are taken largest first under `order_key` (deglex), so the
        result lists its words in decreasing deglex order.  A word of degree
        above the cutoff raises ValueError before any rewrite.  Int input has
        int normal forms under int rules.  Input with a Fraction coefficient
        is scaled by the lcm of its denominators once, reduced, and divided
        back, so its normal form has Fraction coefficients.

        Every rule is homogeneous (`add_rule` checks it), so a rewrite keeps
        a word's degree: the input is split by degree once and `_reduce`
        reduces each degree on its own, highest first, which takes words in
        the same order as one deglex maximum over all pending words.  Inside one
        degree the plain tuple maximum is the deglex maximum, because with
        positive generator degrees neither of two words of one degree is a
        proper prefix of the other.  Deglex is then a monoid order, and every
        rhs of a `complete` rule lies below its lhs, so a rewrite only
        produces words below the one it replaces.
        """
        word_degree = self._word_degree
        dens = [c.denominator for c in poly.values() if type(c) is Fraction]
        den = lcm(*dens)
        buckets: dict[int, Poly] = {}
        for word, coeff in poly.items():
            buckets.setdefault(word_degree(word), {})[word] = (
                coeff.numerator * (den // coeff.denominator) if dens else coeff)
        order = sorted(buckets, reverse=True)
        if order and order[0] > self.cutoff:
            raise ValueError("expression degree exceeds the rewrite cutoff")
        result: Poly = {}
        for degree in order:
            self._reduce(buckets[degree], result)
        return {w: Fraction(c, den) for w, c in result.items()} if dens else result

    def _reduce(self, work: Poly, result: Poly) -> Poly:
        """Add the normal form of work, all of one degree <= cutoff, to result.

        work is consumed: its largest word is rewritten, or moved to result
        when irreducible, until none is left.  result is returned.
        """
        find = self._find_reduction
        while work:
            word = max(work)
            coeff = work.pop(word)
            if coeff == 0:
                continue
            hit = find(word)
            if hit is None:
                # word is the largest pending word of its degree and every
                # later word is deglex-smaller (a rewrite only lowers a word),
                # so no word reaches result twice and nothing merges or cancels
                result[word] = coeff
                continue
            pos, lhs, rhs = hit
            head, tail = word[:pos], word[pos + len(lhs):]
            for rw, rc in rhs.items():
                new = head + rw + tail
                s = coeff * rc
                if new in work:
                    s += work[new]
                if s == 0:
                    work.pop(new, None)
                else:
                    work[new] = s
        return result

    def basis(self, degree: int) -> list[Word]:
        """Irreducible words of exactly the given degree, sorted."""
        if degree > self.cutoff:
            raise ValueError("degree exceeds the rewrite cutoff")
        if not self._basis:
            self._grow_basis()
        return self._basis.get(degree, [])

    def _grow_basis(self) -> None:
        """Irreducible words by degree, each grown from an irreducible word.

        word + (g,) with word irreducible is reducible iff some lhs is a
        suffix of it, which a trie of the reversed left-hand sides answers.
        """
        suffixes: dict = {}
        for lhs, _ in self.rules:
            node = suffixes
            for g in reversed(lhs):
                node = node.setdefault(g, {})
            node[None] = True

        def ends_with_lhs(word: Word) -> bool:
            node = suffixes
            for g in reversed(word):
                node = node.get(g)
                if node is None:
                    return False
                if None in node:
                    return True
            return False

        degrees = self.presentation.degrees
        per_degree: dict[int, list[Word]] = {0: [()]}
        frontier: list[tuple[Word, int]] = [((), 0)]
        while frontier:
            nxt: list[tuple[Word, int]] = []
            for word, degree in frontier:
                for g, e in enumerate(degrees):
                    new = word + (g,)
                    if degree + e > self.cutoff or ends_with_lhs(new):
                        continue
                    per_degree.setdefault(degree + e, []).append(new)
                    nxt.append((new, degree + e))
            frontier = nxt
        self._basis = {d: sorted(ws) for d, ws in per_degree.items()}
        self._reductions.update(dict.fromkeys(chain.from_iterable(per_degree.values())))

    def graded_dims(self, max_degree: int) -> list[int]:
        return [len(self.basis(k)) for k in range(max_degree + 1)]


def _overlap_words(l1: Word, l2: Word) -> list[tuple[Word, int, int]]:
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


def _one_step(word: Word, pos: int, lhs: Word, rhs: Poly) -> Poly:
    head, tail = word[:pos], word[pos + len(lhs):]
    return {head + rw + tail: rc for rw, rc in rhs.items()}


def _s_polys(p: NCPresentation, d: int, rule1: tuple[Word, Poly],
             rule2: tuple[Word, Poly]) -> Iterable[Poly]:
    """Nonzero differences of the two one-step reductions of each overlap word of degree <= d."""
    (l1, r1), (l2, r2) = rule1, rule2
    for word, pos1, pos2 in _overlap_words(l1, l2):
        if p.word_degree(word) <= d:
            if s := combine([(1, _one_step(word, pos1, l1, r1)),
                             (-1, _one_step(word, pos2, l2, r2))]):
                yield s


def complete(p: NCPresentation, d: int) -> RewriteSystem:
    """Truncated completion: all overlaps of degree <= d resolve.

    Relations (including the implicit central commutators) are oriented by
    the degree-lexicographic order with the presentation's generator order,
    and S-polynomials of degree <= d are adjoined until exhausted: each new
    rule is overlapped with every earlier rule in both orders and with
    itself once.  The nonzero S-polynomials queued are kept on one list,
    which so covers every ordered pair of final rules; a final pass reduces
    each against the final rules and raises RuntimeError unless all vanish,
    asserting confluence below the cutoff (Bergman's diamond lemma).  A
    relation of degree > d cannot rewrite a word of degree <= d, so it is
    left out.
    """
    rs = RewriteSystem(p, d, [])
    queue = deque(_integral(rel) for rel in p.all_relations() if rel and p.poly_degree(rel) <= d)
    s_polys: list[Poly] = []
    while queue:
        poly = rs.normal_form(queue.popleft())
        if not poly:
            continue
        lead = max(poly, key=p.order_key)
        coeff = poly[lead]
        rs.add_rule(lead, {w: Fraction(-c, coeff) for w, c in poly.items() if w != lead})
        new = rs.rules[-1]
        start = len(s_polys)
        for other in rs.rules[:-1]:
            s_polys += _s_polys(p, d, new, other)
            s_polys += _s_polys(p, d, other, new)
        s_polys += _s_polys(p, d, new, new)
        queue.extend(s_polys[start:])
    if any(map(rs.normal_form, s_polys)):
        raise RuntimeError("completion failed to reach confluence")
    return rs


@lru_cache(maxsize=None)
def completed(p: NCPresentation, d: int) -> RewriteSystem:
    """`complete`, cached per (presentation, cutoff) for the process."""
    return complete(p, d)


def normal_form(rs: RewriteSystem, expr: Poly) -> Poly:
    return rs.normal_form(expr)


def hilbert(p: NCPresentation, d: int) -> list[int]:
    """Graded dimensions in degrees 0..d by counting irreducible words."""
    return completed(p, d).graded_dims(d)


def is_central(rs: RewriteSystem, expr: Poly) -> bool:
    """True iff expr * x = x * expr for every generator x, taken in order.

    The two sides are the entries for x of a left and a right `_Products`
    table of expr, which raise ValueError for a product above the cutoff.
    """
    left, right = _Products(rs, expr, "left"), _Products(rs, expr, "right")
    return all(left[(i,)] == right[(i,)] for i, _ in enumerate(rs.presentation.degrees))


# -- exact linear algebra on irreducible-word bases ------------------------

def _independent(vectors: Sequence[Sequence[Poly]],
                 bases: Sequence[list[Word]]) -> list[Sequence[Poly]]:
    """The vectors, in order, that are independent of the ones before them.

    The i-th polynomial of a vector lies in the span of the words bases[i];
    the coordinates of a vector are those of its polynomials, concatenated.
    The kept vectors are a basis of the span of all of them and their
    number is its rank: one `echelon` pass, whose pivots mark them.
    """
    indexes, start = [], 0
    for words in bases:
        indexes.append({w: start + j for j, w in enumerate(words)})
        start += len(words)
    rows = ({index[w]: c for index, poly in zip(indexes, vec) for w, c in poly.items()}
            for vec in vectors)
    return [vec for vec, (_, lead) in zip(vectors, echelon(rows)) if lead is not None]


class _Products(dict):
    """p -> NF(p * fixed) for side "right", NF(fixed * p) for side "left".

    The dict is this map's table: T(w), the product with a word w, built on
    first read from the entry a letter shorter.  T(()) = NF(fixed), and T(w)
    is NF(w[0] * T(w[1:])) on the right, NF(T(w[:-1]) * w[-1]) on the left;
    p's product is the sum of c * T(u) over its terms c * u.  letters[i]
    stands in for generator i, so a left table of fixed = 1 is an algebra
    map.  NF(u * NF(v)) = NF(u * v), so the table is exact, wherever normal
    forms are unique on words up to the product's degree; every `complete`
    result asserts that below its cutoff (Bergman's diamond lemma).

    fixed and every letter are stored with integral coefficients as ints
    (others stay Fraction) and must be homogeneous (ValueError otherwise), so
    every entry is homogeneous too: the product of a letter and an entry
    has the degree of any one of its words.  An entry is therefore checked
    against the cutoff on that one word, with the ValueError of
    `RewriteSystem.normal_form`, and reduced in place by
    `RewriteSystem._reduce`, without splitting it by degree first.
    """

    def __init__(self, rs: RewriteSystem, fixed: Poly, side: str,
                 letters: Sequence[Poly] | None = None):
        pres = rs.presentation
        letters = letters or [{(i,): 1} for i, _ in enumerate(pres.degrees)]
        fixed, *self.letters = map(_integral, (fixed, *letters))
        for poly in (fixed, *self.letters):
            pres.poly_degree(poly)
        super().__init__({(): rs.normal_form(fixed)})
        self.rs, self.right = rs, side == "right"
        # the word of each letter that is one word with coefficient 1, else None
        self.words = [next(iter(x)) if len(x) == 1 and 1 in x.values() else None
                      for x in self.letters]

    def __missing__(self, word: Word) -> Poly:
        rs = self.rs
        if self.right:
            i, entry = word[0], self[word[1:]]
            w = self.words[i]
            product = (p_mul(self.letters[i], entry) if w is None
                       else {w + u: c for u, c in entry.items()})
        else:
            i, entry = word[-1], self[word[:-1]]
            w = self.words[i]
            product = (p_mul(entry, self.letters[i]) if w is None
                       else {u + w: c for u, c in entry.items()})
        if product and rs._word_degree(next(iter(product))) > rs.cutoff:
            raise ValueError("expression degree exceeds the rewrite cutoff")
        nf = self[word] = rs._reduce(product, {})
        return nf

    def __call__(self, poly: Poly) -> Poly:
        return combine((c, self[u]) for u, c in poly.items())


class KernelReport(_Record):
    """Kernel dimensions per source degree."""

    __slots__ = ("dims",)


def graded_kernel(rs: RewriteSystem, multiplier: Poly, side: str, d: int) -> KernelReport:
    """Degreewise kernel of w -> w * m (side "right") or w -> m * w ("left").

    Kernel dimensions are reported for source degrees k with k + deg(m) <= d.
    The image of each basis word comes from one `_Products` table, built
    from the image a letter shorter: w * m = x * (w' * m) on the right and
    m * w = (m * w'') * y on the left.  That is exact when normal forms are
    unique on words of degree <= d, as `complete` asserts below its cutoff.
    The dims are memoised on rs; each call returns a fresh list the caller
    may change.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    key = (poly_key(multiplier), side, d)
    if key not in rs._kernels:
        deg = rs.presentation.poly_degree(multiplier)
        if deg is None:
            raise ValueError("multiplier must be nonzero")
        times = _Products(rs, multiplier, side)
        dims: list[int] = []
        for k in range(0, d - deg + 1):
            source, target = rs.basis(k), rs.basis(k + deg)
            dims.append(len(source) - len(_independent([(times[w],) for w in source], [target])))
        rs._kernels[key] = dims
    return KernelReport(list(rs._kernels[key]))


def _right_normal(rs: RewriteSystem, times: _Products, e: int, d: int) -> bool:
    """Whether g * x lies in A_{deg x} * g for each generator x with e + deg x <= d.

    times is the left table of g = times[()], of degree e.  Per generator
    degree, one `_independent` pass ranks the products y * g over the basis
    words y of that degree, from a right table of g, and one more tests that
    adding the g * x of that degree keeps the rank.
    """
    right = _Products(rs, times[()], "right")
    for c in sorted(set(rs.presentation.degrees)):
        if e + c > d:
            break
        target = [rs.basis(e + c)]
        span = _independent([(right[y],) for y in rs.basis(c)], target)
        gx = [(times[(i,)],) for i, deg in enumerate(rs.presentation.degrees) if deg == c]
        if len(_independent(span + gx, target)) > len(span):
            return False
    return True


def ideal_dims(rs: RewriteSystem, gens: Sequence[Poly], d: int) -> list[int]:
    """Graded dimensions of the two-sided ideal generated by gens.

    A single gen g of degree e that passes `_right_normal` (g * x in
    A_{deg x} * g for each generator x, as for t and [beta, gamma] in A_con)
    has g * A in A * g up to degree d, by induction on the length of a word
    x * u': g * x = a * g with a in A_{deg x}, and g * u' is in A * g, so
    g * x * u' = a * (g * u') is in a * A * g, hence in A * g.  So
    AgA = A(gA) = Ag, the image of w -> w * g: dim I_k is dim A_{k - e}
    minus the right `graded_kernel` of g in degree k - e, and 0 for k < e.
    The kernel comes from the memo when the caller asked for it before.

    Otherwise layer k is spanned by x * I_{k - deg x} over the generators x
    and by g * A_{k - deg g} over the gens g: a product u * g * v with
    u = x * u' nonempty is x * (u' * g * v), so right products of layers are
    never needed.  Both come from left `_Products` tables, one per gen g and
    one per generator x, each built from the product a letter shorter,
    g * w = (g * w'') * y and x * u = (x * u'') * y: exact when normal
    forms are unique on words of degree <= d, as `complete` asserts.  Each
    layer keeps the candidates `_independent` of those before them.
    """
    pres = rs.presentation
    seeds = []
    for g in gens:
        times = _Products(rs, g, "left")
        e = pres.poly_degree(times[()])
        if e is not None:
            seeds.append((e, times))
    if len(gens) == len(seeds) == 1 and _right_normal(rs, times, e, d):
        kernel = graded_kernel(rs, gens[0], "right", d).dims
        return [0] * min(e, d + 1) + [len(rs.basis(k)) - n for k, n in enumerate(kernel)]
    lefts = [(e, _Products(rs, {(i,): 1}, "left")) for i, e in enumerate(pres.degrees)]
    layers: dict[int, list[Poly]] = {}
    for k in range(d + 1):
        candidates = [times[w] for e, times in seeds if e <= k for w in rs.basis(k - e)]
        for e, times in lefts:
            candidates += [times(v) for v in layers.get(k - e, [])]
        layers[k] = [v for v, in _independent([(c,) for c in candidates], [rs.basis(k)])]
    return [len(layers[k]) for k in range(d + 1)]


def resolution_check(rs: RewriteSystem, multipliers: Sequence[Poly],
                     d: int) -> tuple[bool, str | None]:
    """Degreewise exactness of A(-s_n) -> ... -> A(-s_1) -> A by right multiplication.

    Checks that consecutive multipliers compose to zero and that at every
    intermediate free module the kernel of the outgoing map has the rank of
    the incoming one, degree by degree.  Returns (ok, failure description).
    """
    pres = rs.presentation
    degs = [pres.poly_degree(m) for m in multipliers]
    if any(e is None for e in degs):
        return False, "zero multiplier"
    for i in range(len(multipliers) - 1):
        if rs.normal_form(p_mul(multipliers[i + 1], multipliers[i])):
            return False, f"composite of maps {i + 1} and {i} is nonzero"
    kernels = [graded_kernel(rs, m, "right", d).dims for m in multipliers]
    for i in range(len(multipliers) - 1):
        ker_out, ker_in = kernels[i], kernels[i + 1]
        e_in = degs[i + 1]
        for k, dim in enumerate(ker_out):
            rank_in = len(rs.basis(k - e_in)) - ker_in[k - e_in] if k >= e_in else 0
            if dim != rank_in:
                return False, f"not exact at position {i + 1}, degree {k}"
    return True, None


# -- morphisms and the fiber product ---------------------------------------

def _map_table(source: NCPresentation, target: RewriteSystem,
               images: Mapping[str, Poly]) -> _Products:
    """The map sending each source generator to its image, as a left table of 1.

    Each image must be zero or homogeneous of its generator's degree
    (ValueError otherwise).
    """
    word_degree = target.presentation.word_degree
    for name, e in zip(source.generators, source.degrees):
        if name not in images:
            raise ValueError(f"no image for generator {name!r}")
        if any(word_degree(w) != e for w, c in images[name].items() if c):
            raise ValueError(f"image of {name!r} must be zero or homogeneous of degree {e}")
    return _Products(target, {(): 1}, "left", [images[name] for name in source.generators])


class Morphism:
    """Graded algebra map given on generators of the source.

    `_map_table` checks the images and builds the map's table once, on
    construction; `apply` and `surjective_upto` read that one table, which
    grows with the words they ask for.  The target must gain no rule after.
    """

    def __init__(self, source: RewriteSystem, target: RewriteSystem,
                 images: Mapping[str, Poly]):
        self.source, self.target, self.images = source, target, images
        self._table = _map_table(source.presentation, target, images)

    def apply(self, poly: Poly) -> Poly:
        return self._table(poly)

    def surjective_upto(self, d: int) -> bool:
        """Whether the source basis maps onto the target's in each degree <= d.

        Each word's image is an entry of one map table, read in degree order.
        """
        for k in range(d + 1):
            target = self.target.basis(k)
            if not target:
                continue
            images = [(self._table[w],) for w in self.source.basis(k)]
            if len(_independent(images, [target])) < len(target):
                return False
        return True


class FiberReport(_Record):
    """Fiber product dims per degree and the verdicts on the given pairs."""

    __slots__ = ("dims", "relations_ok", "generates")


def fiber_product(f_a: Morphism, f_b: Morphism, d: int,
                  pairs: Sequence[tuple[Poly, Poly]] | None = None) -> FiberReport:
    """Degreewise fiber product of two surjections onto a common target.

    dims[k] counts pairs (f, g) with matching images; with both maps
    degreewise surjective this is dim A_k + dim B_k - dim C_k.  The given
    element pairs (defaults: (t,0), (b,beta), (c,gamma)) are checked against
    every relation of the A_con presentation; they generate the fiber
    product when each pair has matching images and their products span it
    degree by degree; each pair entry must be zero or homogeneous of its
    generator's degree.  A layer vector times a pair's entry g combines the
    entries u * g = x * (u' * g) of one right `_Products` table per pair and
    side: exact when both sources' normal forms are unique up to degree d.
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
        pairs = [(parse_expr(rs_a.presentation, a), parse_expr(rs_b.presentation, b))
                 for a, b in (("t", "0"), ("b", "beta"), ("c", "gamma"))]
    acon = catalog("acon")
    if len(pairs) != len(acon.generators):
        raise ValueError("one element pair is needed per A_con generator")
    on_a = _map_table(acon, rs_a, dict(zip(acon.generators, (a for a, _ in pairs))))
    on_b = _map_table(acon, rs_b, dict(zip(acon.generators, (b for _, b in pairs))))
    relations_ok = not any(on_a(rel) or on_b(rel) for rel in map(poly_from_key, acon.relations))

    # grow the subalgebra generated by the pairs, degree by degree
    layers: dict[int, list[list[Poly]]] = {0: [[{(): 1}, {(): 1}]]}
    generates = dims[0] == 1 and all(f_a.apply(a) == f_b.apply(b) for a, b in pairs)
    times = [(_Products(rs_a, a, "right"), _Products(rs_b, b, "right")) for a, b in pairs]
    for k in range(1, d + 1):
        products = [
            (times_a(va), times_b(vb))
            for gi, (times_a, times_b) in enumerate(times)
            for va, vb in layers.get(k - acon.degrees[gi], [])
        ]
        layers[k] = _independent(products, [rs_a.basis(k), rs_b.basis(k)])
        if len(layers[k]) != dims[k]:
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
    return _parse_all(pres, {
        "x": "0", "y": "-t*gamma", "z": "-t*beta", "t": "t", "u": "-beta*beta",
        "w": "-gamma*gamma", "v": "1/2*(beta*gamma + gamma*beta)",
    })


def substitute_and_reduce(rs: RewriteSystem, dictionary: Mapping[str, Poly],
                          expr: Poly, base: NCPresentation) -> Poly:
    """Normal form of expr after substituting the dictionary images.

    expr lives over the base coordinate presentation; each image must be
    zero or homogeneous of its coordinate's degree (`_map_table`), which
    keeps the substituted expression homogeneous whenever expr is.
    """
    return _map_table(base, rs, dictionary)(expr)


def hypersurface_polynomial(base: NCPresentation) -> Poly:
    return parse_expr(base, "x*x + u*y*y + 2*v*y*z + w*z*z + (u*w - v*v)*t*t")


def singular_polynomials(base: NCPresentation) -> dict[str, Poly]:
    return _parse_all(base, {
        "x": "x",
        "uy+vz": "u*y + v*z",
        "vy+wz": "v*y + w*z",
        "z^2+ut^2": "z*z + u*t*t",
        "y^2+wt^2": "y*y + w*t*t",
        "yz-vt^2": "y*z - v*t*t",
        "(uw-v^2)t": "(u*w - v*v)*t",
    })


def laufer_slice(d: int) -> tuple[list[int], list[int]]:
    """Weighted dims of the sliced algebra next to its target presentation.

    The slice adds t - gamma^2, beta^2 - t*gamma and beta*gamma + gamma*beta
    to the A_con relations; under weights t=4, beta=3, gamma=2 everything is
    homogeneous and the quotient should match C<beta,gamma>/(beta^2 - gamma^3,
    beta*gamma + gamma*beta) degree by degree.
    """
    sliced = _build((("t", 4), ("beta", 3), ("gamma", 2)), ("t",), _ACON_RELATIONS + (
        "t - gamma*gamma", "beta*beta - t*gamma", "beta*gamma + gamma*beta"))
    return hilbert(sliced, d), hilbert(catalog("laufer_target"), d)


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
            value = rational(tok)
            return {(): value} if value else {}
        return pres.gen(tok)

    def factor() -> Poly:
        negative = False
        while peek() in ("+", "-"):
            if take() == "-":
                negative = not negative
        return combine([(-1, atom())]) if negative else atom()

    def term() -> Poly:
        out = factor()
        while peek() == "*":
            take()
            out = p_mul(out, factor())
        return out

    def expr_rule() -> Poly:
        out = term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            out = combine([(1, out), (sign, term())])
        return out

    try:
        result = expr_rule()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens in expression")
    return result


def _parse_all(pres: NCPresentation, texts: Mapping[str, str]) -> dict[str, Poly]:
    return {name: parse_expr(pres, text) for name, text in texts.items()}


# The defining relations of A_con = C<t, beta, gamma> with t central; endG
# keeps the first two.
_ACON_RELATIONS = (
    "beta*beta*gamma - gamma*beta*beta",
    "gamma*gamma*beta - beta*gamma*gamma",
    "t*beta*gamma - t*gamma*beta",
)

# name -> (generators with degrees, central generators, relations)
_CATALOG = {
    "acon": ((("t", 1), ("beta", 1), ("gamma", 1)), ("t",), _ACON_RELATIONS),
    "endG": ((("beta", 1), ("gamma", 1)), (), _ACON_RELATIONS[:2]),
    "Ctbc": ((("t", 1), ("b", 1), ("c", 1)), ("t", "b", "c"), ()),
    "Cbc": ((("b", 1), ("c", 1)), ("b", "c"), ()),
    "afib": ((("Tbeta", 1), ("Tgamma", 1), ("Tdelta", 1)), ("Tbeta", "Tgamma", "Tdelta"), ()),
    "laufer_target": ((("beta", 3), ("gamma", 2)), (),
                      ("beta*beta - gamma*gamma*gamma", "beta*gamma + gamma*beta")),
}


def _build(gens: Sequence[tuple[str, int]], central: Sequence[str],
           relations: Sequence[str]) -> NCPresentation:
    """A presentation whose relations are read against its own generators."""
    free = NCPresentation.build(gens, central)
    return NCPresentation.build(gens, central, [parse_expr(free, r) for r in relations])


@lru_cache(maxsize=None)
def catalog(name: str) -> NCPresentation:
    """A named presentation; each is read from its text once per process."""
    try:
        spec = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown algebra {name!r}; choose from {catalog_names()}") from None
    return _build(*spec)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def standard_morphisms(d: int) -> tuple[Morphism, Morphism]:
    """The two surjections onto C[b,c] used by the fiber product."""
    rs_ctbc = completed(catalog("Ctbc"), d)
    rs_endg = completed(catalog("endG"), d)
    rs_cbc = completed(catalog("Cbc"), d)
    f_a = Morphism(rs_ctbc, rs_cbc, _parse_all(rs_cbc.presentation,
                                               {"t": "0", "b": "b", "c": "c"}))
    f_b = Morphism(rs_endg, rs_cbc, _parse_all(rs_cbc.presentation,
                                               {"beta": "b", "gamma": "c"}))
    return f_a, f_b

