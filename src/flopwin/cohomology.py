"""GL(2) character arithmetic and equivariant cohomology on the projective line.

Characters are Laurent polynomials stored as ``{(e1, e2): coefficient}``,
added by `exact.combine` and multiplied by `exact.laurent_mul`.
Irreducibles are labelled by their highest weight ``(p, q)`` with
``p >= q``.  Line bundles on P(V) are written ``L^a Q^b`` where ``L`` is the
tautological subbundle, ``Q = V/L`` the quotient, and ``D = det V``; global
sections and first cohomology carry the equivariant normalisation

    H0(L^a Q^b) = Sym^{b-a} V x D^a          (b - a >= 0)
    H1(L^a Q^b) = Sym^{a-b-2} V x D^{b+1}    (b - a <= -2)

which is validated against an explicit two-chart Cech computation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

from .exact import combine, laurent_mul

Weight = tuple[int, ...]
Char = dict[Weight, int]
IrrepLabel = tuple[int, int]
GradedRep = dict[int, Char]

# A torus-line piece of a bundle over P(V): external weight (e1, e2)
# tensored with Q^q.  Powers of L never appear in the section engine.
Piece = tuple[int, int, int]

IRREP_NAMES: dict[str, IrrepLabel] = {
    "O": (0, 0),
    "V": (1, 0),
    "Vstar": (0, -1),
    "D": (1, 1),
    "S2V": (2, 0),
    "S2Vm1": (1, -1),
}


def irrep_from_name(name: str) -> IrrepLabel:
    try:
        return IRREP_NAMES[name]
    except KeyError:
        choices = ", ".join(sorted(IRREP_NAMES))
        raise ValueError(f"unknown representation name {name!r}; choose from {choices}") from None


def is_symmetric(char: Char) -> bool:
    """Whether the character is invariant under swapping the two variables."""
    return all(char.get((e2, e1), 0) == c for (e1, e2), c in char.items())


def irrep_character(label: IrrepLabel) -> Char:
    """Character of the irreducible with highest weight (p, q), p >= q."""
    p, q = label
    if p < q:
        raise ValueError(f"highest weight must satisfy p >= q, got ({p}, {q})")
    return {(p - k, q + k): 1 for k in range(p - q + 1)}


def multiplicity_in_char(label: IrrepLabel, char: Char) -> int:
    """Multiplicity of an irreducible inside a genuine character.

    Uses the standard difference of weight multiplicities at (p, q) and
    (p + 1, q - 1).
    """
    p, q = label
    return char.get((p, q), 0) - char.get((p + 1, q - 1), 0)


def decompose(char: Char) -> dict[IrrepLabel, int]:
    """Write a character as a nonnegative sum of irreducibles.

    Raises ValueError if the input is not a genuine character.
    """
    if not is_symmetric(char):
        raise ValueError("not a character: not symmetric under variable swap")
    rest = dict(char)
    out: dict[IrrepLabel, int] = {}
    while rest:
        # Work one central character (total weight) at a time.
        s = max(e1 + e2 for e1, e2 in rest)
        block = [(e1, e2) for (e1, e2) in rest if e1 + e2 == s]
        p = max(e1 for e1, _ in block)
        label = (p, s - p)
        mult = rest[(p, s - p)]
        if mult < 0:
            raise ValueError(f"not a character: multiplicity {mult} at weight {label}")
        rest = combine([(1, rest), (-mult, irrep_character(label))])
        if any(e1 + e2 == s and e1 >= e2 and c < 0 for (e1, e2), c in rest.items()):
            raise ValueError("not a character: negative multiplicity after subtraction")
        out[label] = out.get(label, 0) + mult
    return {k: v for k, v in sorted(out.items()) if v}


def _weights_of(labels: Sequence[IrrepLabel | str]) -> list[Weight]:
    weights: list[Weight] = []
    for item in labels:
        label = irrep_from_name(item) if isinstance(item, str) else item
        weights.extend(irrep_character(label).keys())
    return weights


def sym_graded(labels: Sequence[IrrepLabel | str], max_degree: int) -> GradedRep:
    """Graded character of Sym of a direct sum of irreducibles.

    Each summand sits in degree 1; the result is truncated at max_degree.
    """
    pieces = [(e1, e2, 0) for e1, e2 in _weights_of(labels)]
    layers = sym_pieces_expansion(pieces, max_degree)
    return {
        k: {(e1, e2): n for (e1, e2, _), n in layers[k].items()} for k in range(max_degree + 1)
    }


def multiplicity(label: IrrepLabel | str, graded: GradedRep) -> list[int]:
    """Per-degree multiplicity of an irreducible in a graded character."""
    if isinstance(label, str):
        label = irrep_from_name(label)
    return [multiplicity_in_char(label, graded[k]) for k in sorted(graded)]


def sym_multiplicities(label: IrrepLabel | str, labels: Sequence[IrrepLabel | str],
                       max_degree: int) -> list[int]:
    """Per-degree multiplicity of an irreducible (p, q) in Sym of a direct sum.

    Equals multiplicity(label, sym_graded(labels, max_degree)).  The
    multiplicity reads the weights (p, q) and (p + 1, q - 1), both of total
    weight p + q, so only the monomials of total weight <= p + q are
    expanded.
    """
    p, q = irrep_from_name(label) if isinstance(label, str) else label
    pieces = [(e1, e2, 0) for e1, e2 in _weights_of(labels)]
    layers = sym_pieces_expansion(pieces, max_degree, p + q)
    return [layer.get((p, q, 0), 0) - layer.get((p + 1, q - 1, 0), 0) for layer in layers]


# ---------------------------------------------------------------------------
# Line bundle cohomology on P(V)


def pv_line_cohomology(a: int, b: int) -> tuple[Char, Char]:
    """(H0, H1) characters of L^a Q^b in the fixed normalisation."""
    n = b - a
    h0: Char = {}
    h1: Char = {}
    if n >= 0:
        h0 = {(a + n - i, a + i): 1 for i in range(n + 1)}
    elif n <= -2:
        m = a - b - 2
        h1 = {(b + 1 + m - i, b + 1 + i): 1 for i in range(m + 1)}
    return h0, h1


def cech_line_cohomology(a: int, b: int) -> tuple[Char, Char]:
    """Two-chart Cech cohomology of L^a Q^b, weight by weight.

    Over the chart around the first coordinate line the monomial sections
    are z^k s1^a t1^b with k >= 0, of torus weight (a + k, b - k); over the
    other chart the same weight space is spanned iff k <= b - a.  Each
    weight contributes a two-term complex whose kernel and cokernel give
    H0 and H1.
    """
    h0: Char = {}
    h1: Char = {}
    lo = min(0, b - a + 1) - 2
    hi = max(0, b - a) + 2
    for k in range(lo, hi + 1):
        on_first = k >= 0
        on_second = k <= b - a
        rank = 1 if (on_first or on_second) else 0
        weight = (a + k, b - k)
        kernel = int(on_first) + int(on_second) - rank
        cokernel = 1 - rank
        if kernel:
            h0[weight] = h0.get(weight, 0) + kernel
        if cokernel:
            h1[weight] = h1.get(weight, 0) + cokernel
    return h0, h1


PVTerm = tuple[IrrepLabel, int, int]


def pv_cohomology(bundle: Mapping[PVTerm, int]) -> tuple[dict[IrrepLabel, int], dict[IrrepLabel, int]]:
    """Cohomology of a formal combination of W x L^a Q^b, as irreducible sums."""
    h0: Counter[IrrepLabel] = Counter()
    h1: Counter[IrrepLabel] = Counter()
    for (label, a, b), mult in bundle.items():
        line_h0, line_h1 = pv_line_cohomology(a, b)
        w_char = irrep_character(label)
        for target, line_char in ((h0, line_h0), (h1, line_h1)):
            if not line_char:
                continue
            for piece, m in decompose(laurent_mul(w_char, line_char)).items():
                target[piece] += m * mult
    return ({k: v for k, v in sorted(h0.items()) if v},
            {k: v for k, v in sorted(h1.items()) if v})


# ---------------------------------------------------------------------------
# Sections of symmetric algebras over P(V)

# Torus-line pieces of O^2 + (Q^2 D^-1)^2 + V, the bundle whose total space
# is the intersection of the two resolved strata, viewed over P(V).
INTERSECTION_BUNDLE_PIECES: tuple[Piece, ...] = (
    (0, 0, 0),
    (0, 0, 0),
    (-1, -1, 2),
    (-1, -1, 2),
    (1, 0, 0),
    (0, 1, 0),
)


def sym_pieces_expansion(pieces: Sequence[Piece], max_degree: int,
                         target: int | None = None) -> list[dict[Piece, int]]:
    """Per-degree monomials of Sym of a sum of torus-line pieces.

    Degree k of the result is a dict mapping each combined piece
    (e1, e2, q) to the number of degree-k monomials with that total weight
    and Q-power; every count is positive.  Adding a piece w to the sum
    multiplies the series by 1/(1 - w), which is the recurrence
    new[k] = old[k] + w * new[k - 1]; each piece updates the degrees in
    place from low to high.

    With a target, only the monomials of total weight e1 + e2 + q <= target
    are kept.  Sym of a sum is the product of the Sym of each piece, so the
    pieces may be applied in any order; those of negative total weight (the
    sum of a piece's three entries) are applied first.  The total weight
    of a monomial is the sum of the totals of its factors.  Once the pieces
    of negative total are applied, every later factor adds a total >= 0, so
    a monomial built so far with total above the target extends only to
    monomials above it: such states are dropped then, and a piece of total
    s only extends the states of total <= target - s.  Before that point
    nothing is dropped, since a negative piece can still bring a state down.
    """
    layers: list[dict[Piece, int]] = [{(0, 0, 0): 1}][: max_degree + 1]  # none below 0
    layers += [{} for _ in range(max_degree)]
    if target is None:
        _multiply_pieces(layers, pieces, None)
        return layers
    _multiply_pieces(layers, [piece for piece in pieces if sum(piece) < 0], None)
    layers = [{key: n for key, n in layer.items() if sum(key) <= target} for layer in layers]
    _multiply_pieces(layers, [piece for piece in pieces if sum(piece) >= 0], target)
    return layers


def _multiply_pieces(layers: list[dict[Piece, int]], pieces: Sequence[Piece],
                     target: int | None) -> None:
    """Multiply the series in layers by 1/(1 - w) for each piece w, in place.

    The pieces are applied in sorted order, so that equal pieces come back
    to back and the layers gain new states as late as possible; the product
    does not depend on the order.  With a target, a state of total weight
    above target - (total of w) is not extended by w; the caller drops the
    states above the target first.
    """
    for w1, w2, wq in sorted(pieces):
        limit = None if target is None else target - w1 - w2 - wq
        for k in range(1, len(layers)):
            layer = layers[k]
            get = layer.get
            for (e1, e2, q), cnt in layers[k - 1].items():
                if limit is not None and e1 + e2 + q > limit:
                    continue
                key = (e1 + w1, e2 + w2, q + wq)
                layer[key] = get(key, 0) + cnt


def vstar_section_counts(twists: Sequence[Piece], max_degree: int) -> list[list[int]]:
    """Per-degree V* multiplicity in H0 of twist x Sym^k(bundle) on P(V), per twist.

    The bundle is INTERSECTION_BUNDLE_PIECES, expanded once for all twists.
    The multiplicity is linear in the character, so each monomial of Sym^k
    contributes its weight-difference term against the H0 character of its
    line Q^(q + tq), and that character is built once per Q-power.  H1 is
    not computed: every bundle piece has Q-power >= 0, so H1 vanishes for
    every twist with tq >= -1, which covers all callers.

    Only monomials of one total weight can contribute.  With n = q + tq,
    `pv_line_cohomology(0, n)` gives H0 the weights (n - i, i), all of total
    weight n, and the term reads H0 at (a, b) and (a + 1, b - 1) with
    a + b = v1 + v2 - e1 - e2 - t1 - t2 for V* = (v1, v2).  Both lookups
    are 0 unless a + b = n, that is e1 + e2 + q = v1 + v2 - t1 - t2 - tq,
    so every other monomial is skipped, and the bundle is expanded once, up
    to the largest of these total weights.
    """
    v1, v2 = IRREP_NAMES["Vstar"]
    weights = [v1 + v2 - t1 - t2 - tq for t1, t2, tq in twists]
    layers = sym_pieces_expansion(INTERSECTION_BUNDLE_PIECES, max_degree, max(weights, default=0))
    line_h0: dict[int, Char] = {}
    counts = []
    for (t1, t2, tq), weight in zip(twists, weights):
        per_degree = []
        for layer in layers:
            total = 0
            for (e1, e2, q), cnt in layer.items():
                if e1 + e2 + q != weight:
                    continue
                h0 = line_h0.get(q + tq)
                if h0 is None:
                    h0 = line_h0[q + tq] = pv_line_cohomology(0, q + tq)[0]
                a, b = v1 - e1 - t1, v2 - e2 - t2
                total += cnt * (h0.get((a, b), 0) - h0.get((a + 1, b - 1), 0))
            per_degree.append(total)
        counts.append(per_degree)
    return counts


def semiorthogonality_multiplicities(max_degree: int) -> dict[str, list[int]]:
    """The two displayed section counts showing the strata sheaves are orthogonal.

    Both lists collect the multiplicity of V* per symmetric degree: once in
    sections of Q x Sym(bundle) and once in sections of Sym(bundle).
    """
    q_twist, v_twist = vstar_section_counts([(0, 0, 1), (0, 0, 0)], max_degree)
    return {"Q_twist": q_twist, "V_twist": v_twist}


def verify_semiorthogonality(max_degree: int) -> bool:
    report = semiorthogonality_multiplicities(max_degree)
    return all(all(m == 0 for m in dims) for dims in report.values())


def afib_vanishing(max_degree: int) -> list[int]:
    """Multiplicity of V* in Sym of V + Sym^2 V(-1)^2; identically zero."""
    return sym_multiplicities("Vstar", ["V", "S2Vm1", "S2Vm1"], max_degree)


def s0_invariant_dims(max_degree: int) -> list[int]:
    """Invariant dims of the closed stratum's coordinate ring.

    Equals the Hilbert series of a polynomial ring on three degree-2
    generators (the traces of beta^2, gamma^2 and beta gamma).
    """
    return sym_multiplicities("O", ["V", "S2Vm1", "S2Vm1"], max_degree)


# ---------------------------------------------------------------------------
# The bimodule pipeline: dual Koszul complex and the Ext^1 computation

# Koszul entries are polynomials in the two sections s_beta, s_gamma, stored
# as characters keyed by exponent pairs.
S_BETA: Char = {(1, 0): 1}
S_GAMMA: Char = {(0, 1): 1}


# Signed wedge bases chosen so the matrices match the displayed ones:
# degree 1 uses e1, e2, e3; degree 2 uses -e13, -e23, -e12; degree 3 uses -e123.
_WEDGE_BASES: tuple[tuple[tuple[frozenset[int], int], ...], ...] = (
    ((frozenset(), 1),),
    ((frozenset({1}), 1), (frozenset({2}), 1), (frozenset({3}), 1)),
    ((frozenset({1, 3}), -1), (frozenset({2, 3}), -1), (frozenset({1, 2}), -1)),
    ((frozenset({1, 2, 3}), -1),),
)

# The section has components (s_beta, s_gamma, 0) in the three summands.
_SECTION: tuple[Char, ...] = (S_BETA, S_GAMMA, {})


def _wedge_insert(index: int, subset: frozenset[int]) -> tuple[frozenset[int], int]:
    """Sign and support of e_index wedged onto a basis wedge."""
    if index in subset:
        return subset, 0
    sign = (-1) ** sum(1 for j in subset if j < index)
    return subset | {index}, sign


def koszul_matrices() -> list[list[list[Char]]]:
    """The three differentials of the dual Koszul complex, acting on columns.

    Built from wedging with the section; the bases are fixed so the entries
    reproduce the displayed matrices.
    """
    mats: list[list[list[Char]]] = []
    for pos in range(3):
        source = _WEDGE_BASES[pos]
        target = _WEDGE_BASES[pos + 1]
        rows: list[list[Char]] = [[{} for _ in source] for _ in target]
        for col, (sub, s_sign) in enumerate(source):
            for index, coeff in enumerate(_SECTION, start=1):
                if not coeff:
                    continue
                new_sub, w_sign = _wedge_insert(index, sub)
                if w_sign == 0:
                    continue
                for row, (t_sub, t_sign) in enumerate(target):
                    if t_sub == new_sub:
                        total = s_sign * w_sign * t_sign
                        rows[row][col] = combine([(1, rows[row][col]), (total, coeff)])
        mats.append(rows)
    return mats


def koszul_is_complex(mats: Sequence[Sequence[Sequence[Char]]]) -> bool:
    """Whether consecutive differentials compose to zero."""
    for first, second in zip(mats, mats[1:]):
        for row in second:
            for c in range(len(first[0])):
                if combine((1, laurent_mul(entry, first[m][c])) for m, entry in enumerate(row)):
                    return False
    return True


# Line types of the dual complex terms, outermost twist excluded:
# O -> (Q^2 D^-1)^2 + Q -> (Q^3 D^-1)^2 + Q^4 D^-2 -> Q^5 D^-2.
KOSZUL_DUAL_LINES: tuple[tuple[Piece, ...], ...] = (
    ((0, 0, 0),),
    ((-1, -1, 2), (-1, -1, 2), (0, 0, 1)),
    ((-1, -1, 3), (-1, -1, 3), (-2, -2, 4)),
    ((-2, -2, 5),),
)


def koszul_lines_consistent() -> bool:
    """Each nonzero matrix entry must shift the line type by one Q^2 D^-1 step.

    A section s_beta or s_gamma is one such step, so every monomial of the
    entry must also have section degree a + b = 1, the number of steps.
    """
    mats = koszul_matrices()
    step = (-1, -1, 2)
    for pos, mat in enumerate(mats):
        sources = KOSZUL_DUAL_LINES[pos]
        targets = KOSZUL_DUAL_LINES[pos + 1]
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if not entry:
                    continue
                expected = tuple(s + d for s, d in zip(sources[c], step))
                if targets[r] != expected or any(a + b != 1 for a, b in entry):
                    return False
    return True


def ext1_FG_dims(max_degree: int) -> list[int]:
    """Graded dims of the degree-2 cohomology of the twisted dual complex.

    Runs the full pipeline: the dual Koszul complex must compose to zero
    with consistent line bookkeeping, the degree-3 obstruction must vanish,
    and the remaining term counts V* in sections of Q D^-1 x Sym(bundle).
    The result matches a polynomial ring on two degree-1 generators.
    """
    mats = koszul_matrices()
    if not koszul_is_complex(mats):
        raise ValueError("dual Koszul differentials do not compose to zero")
    if not koszul_lines_consistent():
        raise ValueError("dual Koszul line bookkeeping is inconsistent")
    degree3, dims = vstar_section_counts([(-1, -1, 2), (-1, -1, 1)], max_degree)
    if any(m != 0 for m in degree3):
        raise ValueError("degree-3 obstruction term does not vanish")
    return dims


# ---------------------------------------------------------------------------
# Sections over the resolved exceptional locus chart

def e2_sections(max_degree: int) -> list[int]:
    """Sections of the structure sheaf on the resolved chart, by base degree.

    The chart is P^1 x A^3 where the projective coordinates carry scaling
    weight -1 and the affine coordinates p, b00, c00 are weight 0, so degree
    m is h0(O) of the P^1 fiber times the degree-m monomials in three
    weight-0 pieces: the polynomial ring on the three affine coordinates.
    """
    fiber = sum(pv_line_cohomology(0, 0)[0].values())
    layers = sym_pieces_expansion([(0, 0, 0)] * 3, max_degree)
    return [fiber * sum(layer.values()) for layer in layers]


# ---------------------------------------------------------------------------
# The two locally free resolutions and their pushforward bookkeeping.
# Term lists run leftmost term first: irreducible labels downstairs, and
# torus-line pieces over P(V) for the upstairs complex of resF.

RES_G_TERMS: tuple[tuple[IrrepLabel, ...], ...] = (
    ((0, -1),),
    ((0, 0), (1, -1)),
    ((1, 0),),
)

RES_F_DOWNSTAIRS: tuple[tuple[IrrepLabel, ...], ...] = (
    ((1, -1),),
    ((0, 0), (0, 0), (0, 0), (1, 0)),
    ((1, 0),),
)

RES_F_UPSTAIRS: tuple[tuple[Piece, ...], ...] = (
    ((2, 2, -4),),
    ((1, 1, -2), (1, 1, -2), (2, 2, -3)),
    ((1, 1, -1), (1, 1, -1), (0, 0, 0)),
    ((0, 0, 1),),
)


def pushforward_assembly(upstairs: Sequence[Sequence[Piece]]) -> list[Counter[IrrepLabel]]:
    """Pushforward of a term complex, leftmost (deepest) term first.

    Entry i collects H0 of term i together with H1 of the deeper term i - 1;
    a trailing entry catches any H1 of the rightmost term.
    """
    # every upstairs piece has e1 == e2, so (e1, e2) labels an irreducible
    cohomology = [pv_cohomology(Counter(((e1, e2), 0, q) for e1, e2, q in terms))
                  for terms in upstairs]
    assembled: list[Counter[IrrepLabel]] = []
    for pos in range(len(cohomology) + 1):
        total: Counter[IrrepLabel] = Counter()
        if pos < len(cohomology):
            total.update(cohomology[pos][0])
        if pos >= 1:
            total.update(cohomology[pos - 1][1])
        assembled.append(+total)
    return assembled


def verify_resf_pushforward() -> bool:
    """The upstairs complex must push down to the displayed resolution."""
    assembled = pushforward_assembly(RES_F_UPSTAIRS)
    expected = [Counter(terms) for terms in RES_F_DOWNSTAIRS]
    return (
        assembled[0] == Counter()
        and assembled[-1] == Counter()
        and assembled[1:-1] == expected
    )
