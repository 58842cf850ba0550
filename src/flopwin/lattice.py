"""Weight/cocharacter lattice arithmetic for rank <= 2 GIT presentations.

A presentation records the torus rank, the nonzero roots of the group, the
weights of the linearized representation (with multiplicity), and generators
of the Weyl group acting on the weight lattice. All arithmetic is exact:
lattice vectors are integer tuples and derived quantities are Fractions.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from math import gcd

from .exact import _Record, echelon

Vector = tuple  # integer or Fraction coordinates
Matrix = tuple  # rows, each a tuple of ints


class PresentationError(ValueError):
    """Raised when a presentation file or dict fails validation."""


def pair(lam: Sequence, chi: Sequence):
    """Exact pairing <lam, chi> between cocharacter and weight vectors."""
    if len(lam) != len(chi):
        raise ValueError(f"length mismatch: {len(lam)} vs {len(chi)}")
    return sum(a * b for a, b in zip(lam, chi))


def vec_add(a: Sequence, b: Sequence) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Sequence) -> Vector:
    return tuple(-x for x in a)


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def primitive(a: Sequence) -> Vector:
    """Primitive integer vector on the ray of the integer vector ``a``.

    Only the gcd is stripped; the sign of the first nonzero coordinate is
    kept (see `primitive_signed`).
    """
    g = gcd(*a)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in a)


def primitive_signed(a: Sequence) -> Vector:
    """Primitive vector with the first nonzero coordinate positive."""
    p = primitive(a)  # raises for the zero vector, so p has a nonzero coordinate
    return p if next(x for x in p if x) > 0 else vec_neg(p)


def mat_apply(m: Matrix, v: Sequence) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inverse_transpose(m: Matrix) -> Matrix:
    """Inverse transpose of a 1x1 or 2x2 integer matrix with det +-1.

    This is the induced action on the cocharacter lattice: pairing is then
    preserved, <g*lam, g.chi> = <lam, chi>.  It is the cofactor matrix
    divided by det, and dividing by det = +-1 is multiplying by it.
    """
    if len(m) == 1:
        det, cofactors = m[0][0], ((1,),)
    else:
        (a, b), (c, d) = m
        det, cofactors = a * d - b * c, ((d, -c), (-b, a))
    if det == 0:
        raise ValueError("singular Weyl generator")
    if det not in (1, -1):
        raise ValueError("Weyl generator is not invertible over the integers")
    return tuple(tuple(det * x for x in row) for row in cofactors)


def _integer(value) -> int:
    # JSON integers only: int() would truncate a float, take a boolean as 0
    # or 1, and read a digit string (or, in a vector, each of its digits)
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class GitPresentation(_Record):
    """A rank <= 2 linearized torus/reductive-group presentation.

    weights is a tuple of (vector, multiplicity) pairs; roots is a tuple of
    vectors; weyl is a tuple of integer matrices generating the Weyl action
    on the weight lattice.
    """

    __slots__ = ("rank", "roots", "weights", "weyl")

    @classmethod
    def from_dict(cls, data: dict) -> "GitPresentation":
        try:
            rank = _integer(data["rank"])
            roots = tuple(tuple(_integer(x) for x in r) for r in data.get("roots", []))
            weights = tuple(
                (tuple(_integer(x) for x in w["vec"]), _integer(w.get("mult", 1)))
                for w in data["weights"]
            )
            weyl = tuple(
                tuple(tuple(_integer(x) for x in row) for row in m)
                for m in data.get("weyl", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PresentationError(f"malformed presentation: {exc}") from exc
        p = cls(rank=rank, roots=roots, weights=weights, weyl=weyl)
        p.validate()
        return p

    def validate(self) -> None:
        if self.rank < 1 or self.rank > 2:
            raise PresentationError(f"unsupported rank {self.rank} (only 1 and 2)")
        for r in self.roots:
            if len(r) != self.rank:
                raise PresentationError(f"root {r} has wrong length")
        for w, m in self.weights:
            if len(w) != self.rank:
                raise PresentationError(f"weight {w} has wrong length")
            if m < 1:
                raise PresentationError(f"weight {w} has nonpositive multiplicity {m}")
        for g in self.weyl:
            if len(g) != self.rank or any(len(row) != self.rank for row in g):
                raise PresentationError("Weyl generator has wrong shape")
            try:
                mat_inverse_transpose(g)  # integer invertibility
            except ValueError as exc:
                raise PresentationError(str(exc)) from exc
        for g in self.weyl:
            if sorted(mat_apply(g, r) for r in self.roots) != sorted(self.roots):
                raise PresentationError("Weyl generator does not permute the roots")
            ws = sorted((mat_apply(g, w), m) for w, m in self.weights)
            if ws != sorted(self.weights):
                raise PresentationError("Weyl generator does not permute the weights")

    def weyl_elements(self) -> tuple:
        """All elements of the finite group generated by the Weyl generators."""
        seen = {mat_identity(self.rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.weyl:
                    gh = mat_mul(g, h)
                    if gh not in seen:
                        seen.add(gh)
                        nxt.append(gh)
            frontier = nxt
            if len(seen) > 10000:
                raise PresentationError("Weyl generators do not generate a small finite group")
        return tuple(sorted(seen))


def is_quasi_symmetric(p: GitPresentation) -> bool:
    """True when the weights on every line through the origin sum to zero."""
    lines: dict = {}
    for w, m in p.weights:
        if is_zero(w):
            continue
        d = primitive_signed(w)
        lines[d] = vec_add(lines.get(d, (0,) * p.rank), tuple(m * x for x in w))
    return all(is_zero(total) for total in lines.values())


def weyl_invariant_basis(p: GitPresentation) -> tuple:
    """Primitive basis of the Weyl-fixed subspace of the weight lattice.

    Computed as the exact kernel of the stacked (g - I) matrices: the columns
    of that stack, each augmented with a unit vector, are eliminated on
    integers, and the unit-vector columns of the rows left without a pivot
    span the kernel.  Each basis vector is primitive with first nonzero
    coordinate positive, and the list is sorted lexicographically descending
    for determinism.
    """
    n = p.rank
    rows = [[g[i][j] - int(i == j) for j in range(n)] for g in p.weyl for i in range(n)]
    width = len(rows)
    aug = ({**{i: row[j] for i, row in enumerate(rows) if row[j]}, width + j: 1}
           for j in range(n))
    kernel = (tuple(vec.get(width + i, 0) for i in range(n))
              for vec, lead in echelon(aug, width) if lead is None)
    return tuple(sorted((primitive_signed(v) for v in kernel), reverse=True))


def invariant_line(p: GitPresentation) -> Vector:
    """Primitive generator of the Weyl-fixed line; errors if not a line."""
    basis = weyl_invariant_basis(p)
    if len(basis) != 1:
        raise PresentationError(
            f"Weyl-fixed subspace has dimension {len(basis)}, expected a line"
        )
    return basis[0]


def dominant_representative(p: GitPresentation, chi: Sequence) -> Vector:
    """Lexicographically maximal element of the Weyl orbit."""
    return max(mat_apply(g, chi) for g in p.weyl_elements())


def load_fixture(name: str) -> GitPresentation:
    """Load one of the packaged presentation fixtures by file name."""
    from importlib.resources import files

    res = files("flopwin.fixtures").joinpath(name)
    return GitPresentation.from_dict(json.loads(res.read_text(encoding="utf-8")))
