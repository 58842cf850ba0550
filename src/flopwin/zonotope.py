"""Stability polytope, moduli descriptor and its walls on the invariant line.

The polytope nabla is cut out by |<lam, chi>| <= eta(lam)/2 over all
cocharacters lam; eta is piecewise linear on the fan whose walls are the
hyperplanes orthogonal to the weights and roots, so the primitive ray
generators of that fan suffice as candidate normals. One construction serves
rank 1 and rank 2. Everything downstream (arrangement families, punctures on
the Weyl-invariant line, walls and chambers) is exact rational arithmetic.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from .exact import _Record
from .lattice import (
    GitPresentation,
    is_quasi_symmetric,
    invariant_line,
    is_zero,
    pair,
    primitive_signed,
    vec_add,
    vec_neg,
)


class UnboundedPolytopeError(ValueError):
    """The constraint normals do not span; a recession direction is reported."""


def eta(p: GitPresentation, lam: Sequence):
    """Boundary width of the stability region in direction lam.

    eta(lam) = sum over roots of min(0, <lam, alpha>)
             - sum over weights (with multiplicity) of min(0, <lam, w>).
    """
    total = 0
    for alpha in p.roots:
        total += min(0, pair(lam, alpha))
    for w, m in p.weights:
        total -= m * min(0, pair(lam, w))
    return total


def _orthogonal_rays(v: Sequence) -> tuple:
    """The two primitive rays of the fan cut by the wall orthogonal to v != 0:
    +-1 in rank 1, where the wall is the origin, and the two signs of the
    primitive (-v1, v0) in rank 2."""
    r = (1,) if len(v) == 1 else primitive_signed((-v[1], v[0]))
    return r, vec_neg(r)


def _candidate_normals(p: GitPresentation) -> list:
    """Primitive ray generators of the fan cut by the weight/root orthogonals,
    in either rank: each nonzero weight or root adds the rays of its wall."""
    return sorted({r for v in (*p.roots, *(w for w, _ in p.weights)) if not is_zero(v)
                   for r in _orthogonal_rays(v)})


class Zonotope(_Record):
    """Closed polytope with exact H- and V-representations.

    halfspaces: tuple of (normal, bound) meaning <normal, chi> <= bound.
    vertices: tuple of Fraction tuples.
    """

    __slots__ = ("rank", "halfspaces", "vertices")

    def contains(self, point: Sequence) -> bool:
        if not self.vertices:
            return False
        if not self.halfspaces:
            return tuple(Fraction(x) for x in point) == self.vertices[0]
        return all(pair(n, point) <= b for n, b in self.halfspaces)

    def facets(self) -> tuple:
        """Constraints whose contact set has dimension rank - 1.

        Returned as (normal, bound, saturating vertices); a constraint
        qualifies when at least ``rank`` distinct vertices saturate it.
        """
        out = []
        for n, b in self.halfspaces:
            sat = tuple(v for v in self.vertices if pair(n, v) == b)
            if len(sat) >= self.rank:
                out.append((n, b, sat))
        return tuple(out)

    def translate(self, delta: Sequence) -> "Zonotope":
        delta = tuple(Fraction(x) for x in delta)
        return Zonotope(
            rank=self.rank,
            halfspaces=tuple((n, b + pair(n, delta)) for n, b in self.halfspaces),
            vertices=tuple(vec_add(v, delta) for v in self.vertices),
        )


def _meet(rows: Sequence):
    """The point where the rank-many constraints (normal, bound) are all tight,
    by Cramer's rule; None when their normals are dependent."""
    if len(rows) == 1:
        ((n, b),) = rows
        return (Fraction(b, n[0]),) if n[0] else None
    (n1, b1), (n2, b2) = rows
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if det == 0:
        return None
    return (Fraction(b1 * n2[1] - b2 * n1[1], det), Fraction(n1[0] * b2 - n2[0] * b1, det))


def polytope_from_constraints(rank: int, constraints: Sequence) -> Zonotope:
    """Build a Zonotope from (normal, bound) pairs by exact vertex enumeration.

    One construction serves rank 1 and rank 2: the vertices are the feasible
    meeting points of ``rank`` constraints with independent normals. Bounds
    may be any rationals; duplicate normals keep the tightest bound. Raises
    UnboundedPolytopeError with a ray d that has <n, d> <= 0 for every n.
    """
    merged: dict = {}
    for n, b in constraints:
        n, b = tuple(int(x) for x in n), Fraction(b)
        merged[n] = min(merged.get(n, b), b)
    items = sorted(merged.items())
    # a nonzero recession cone has a ray on the wall of some nonzero normal, or
    # is everything when every normal is zero, so these rays are exhaustive
    walls = [n for n, _ in items if not is_zero(n)] or [(1,) * rank]
    for v in walls:
        for d in _orthogonal_rays(v):
            if all(pair(n, d) <= 0 for n, _ in items):
                raise UnboundedPolytopeError(f"unbounded in direction {d}")
    meets = (_meet(rows) for rows in combinations(items, rank))
    vertices = tuple(sorted({x for x in meets if x is not None
                             and all(pair(n, x) <= b for n, b in items)}))
    z = Zonotope(rank=rank, halfspaces=tuple(items), vertices=vertices)
    if len(vertices) > rank:
        # full-dimensional: keep only the constraints that support a facet
        z = Zonotope(rank=rank, halfspaces=tuple(h[:2] for h in z.facets()), vertices=vertices)
    return z


def nabla(p: GitPresentation) -> Zonotope:
    """The stability polytope {chi : |<lam, chi>| <= eta(lam)/2 for all lam}."""
    if not is_quasi_symmetric(p):
        warnings.warn("presentation is not quasi-symmetric; polytope may degenerate",
                      stacklevel=2)
    normals = _candidate_normals(p)
    if not normals:
        # no nonzero weight or root: the polytope is the origin, with no walls
        return Zonotope(rank=p.rank, halfspaces=(), vertices=((Fraction(0),) * p.rank,))
    # the candidates come in opposite pairs, and |<lam, chi>| <= eta(lam)/2
    # bounds both sides, so lam's side takes the smaller of eta(+-lam)
    return polytope_from_constraints(p.rank, [
        (lam, Fraction(min(eta(p, lam), eta(p, vec_neg(lam))), 2)) for lam in normals
    ])


class HyperplaneFamily(_Record):
    """All lattice translates of a supporting hyperplane: <normal, chi> = c
    with c running over each offset plus any integer.

    offsets: sorted tuple of Fractions in [0, 1).
    """

    __slots__ = ("normal", "offsets")

    def punctures_on_line(self, direction: Sequence) -> tuple:
        """Residues mod 1 of the intersections with the line {tau * direction}."""
        s = pair(self.normal, direction)
        if s == 0:
            return ()
        out = set()
        for off in self.offsets:
            for k in range(abs(s)):
                out.add(Fraction(off + k, s) % 1)
        return tuple(sorted(out))


class SKMSDescriptor(_Record):
    """Punctured-line data: the polytope, its arrangement, the invariant line,
    and the puncture residues modulo the unit translation.

    The walls D_j are the punctures r + k (r a residue, k an integer) in
    increasing order, numbered so that D_{-1} is the largest one <= 0; the
    chamber C_j is the open interval (D_{j-1}, D_j).

    line is None when the arrangement has no walls; punctures is a sorted
    tuple of Fractions in [0, 1) and N its length.
    """

    __slots__ = ("zonotope", "families", "line", "punctures", "N")

    def wall(self, j: int) -> Fraction:
        """Line parameter of D_j, in O(1) however far j is from the origin.

        Numbering r_i + q as q*N + i lists the punctures in increasing order.
        The largest one <= 0 is number 0 when 0 is a puncture and -1 when it
        is not, and D_j comes j + 1 places after it.
        """
        if self.N == 0:
            raise ValueError("arrangement has no walls; the face poset is empty")
        anchor = 0 if self.punctures[0] == 0 else -1
        q, i = divmod(anchor + j + 1, self.N)
        return self.punctures[i] + q

    def at(self, tau) -> tuple:
        """The point tau * line of the ambient weight space."""
        return tuple(tau * c for c in self.line)

    def to_jsonable(self) -> dict:
        return {
            "halfspaces": [
                {"normal": list(n), "bound": str(b)}
                for n, b in self.zonotope.halfspaces
            ],
            "vertices": [[str(c) for c in v] for v in self.zonotope.vertices],
            "punctures": [str(r) for r in self.punctures],
            "N": self.N,
        }


def skms(p: GitPresentation) -> SKMSDescriptor:
    """Puncture residues of the arrangement on the Weyl-invariant line.

    The line is parametrized by its primitive lattice generator, so the
    invariant-lattice translation acts as tau -> tau + 1 and residues are
    taken mod 1.
    """
    z = nabla(p)
    # one family per facet direction: the lattice translates of the supporting
    # hyperplanes, recorded by their offsets mod 1
    offsets: dict = {}
    for n, b, _sat in z.facets():
        key = primitive_signed(n)
        offsets.setdefault(key, set()).add((b if key == n else -b) % 1)
    fams = tuple(
        HyperplaneFamily(normal=k, offsets=tuple(sorted(v)))
        for k, v in sorted(offsets.items())
    )
    if not fams:
        return SKMSDescriptor(zonotope=z, families=(), line=None, punctures=(), N=0)
    line = invariant_line(p)
    residues: set = set()
    for f in fams:
        residues.update(f.punctures_on_line(line))
    punctures = tuple(sorted(residues))
    return SKMSDescriptor(zonotope=z, families=fams, line=line,
                          punctures=punctures, N=len(punctures))
