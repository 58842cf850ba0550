"""Stability polytope, moduli descriptor and its walls on the invariant line.

The polytope nabla is cut out by |<lam, chi>| <= eta(lam)/2 over all
cocharacters lam; eta is piecewise linear on the fan whose walls are the
hyperplanes orthogonal to the weights and roots, so the primitive ray
generators of that fan suffice as candidate normals. Everything downstream
(arrangement families, punctures on the Weyl-invariant line, walls and
chambers) is exact rational arithmetic.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from fractions import Fraction

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


def _candidate_normals(p: GitPresentation) -> list:
    """Primitive ray generators of the fan cut by the weight/root orthogonals."""
    directions = set()
    for v in list(p.roots) + [w for w, _ in p.weights]:
        if not is_zero(v):
            directions.add(primitive_signed(v))
    rays = set()
    if p.rank == 1:
        if directions:
            rays.update({(1,), (-1,)})
    else:
        for d in directions:
            r = primitive_signed((-d[1], d[0]))
            rays.add(r)
            rays.add(vec_neg(r))
    return sorted(rays)


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


def polytope_from_constraints(rank: int, constraints: Sequence) -> Zonotope:
    """Build a Zonotope from (normal, bound) pairs by exact vertex enumeration.

    Bounds may be any rationals; duplicate normals keep the tightest bound.
    Raises UnboundedPolytopeError when the normals do not span.
    """
    merged: dict = {}
    for n, b in constraints:
        b = Fraction(b)
        n = tuple(int(x) for x in n)
        if n in merged:
            merged[n] = min(merged[n], b)
        else:
            merged[n] = b
    normals = sorted(merged)
    if not normals:
        return Zonotope(rank=rank, halfspaces=(), vertices=((Fraction(0),) * rank,))
    # boundedness: the kernel of the normal matrix must be trivial and the
    # normals must not all lie in a closed halfplane with 0 on its boundary
    if rank == 1:
        if not any(n[0] > 0 for n in normals) or not any(n[0] < 0 for n in normals):
            d = (1,) if any(n[0] < 0 for n in normals) else (-1,)
            raise UnboundedPolytopeError(f"unbounded in direction {d}")
        hi = min(Fraction(merged[n], n[0]) for n in normals if n[0] > 0)
        lo = max(Fraction(merged[n], n[0]) for n in normals if n[0] < 0)
        if lo > hi:
            return Zonotope(rank=1, halfspaces=tuple(merged.items()), vertices=())
        verts = ((lo,),) if lo == hi else ((lo,), (hi,))
        hs = tuple((n, merged[n]) for n in normals
                   if any(pair(n, v) == merged[n] for v in verts))
        return Zonotope(rank=1, halfspaces=hs, vertices=verts)
    # rank 2: recession direction d satisfies <n, d> <= 0 for all n; extreme
    # rays of that cone lie on some wall <n, d> = 0, so checking the rotated
    # normals is exhaustive
    for n in normals:
        for d in ((-n[1], n[0]), (n[1], -n[0])):
            if any(c != 0 for c in d) and all(pair(m, d) <= 0 for m in normals):
                raise UnboundedPolytopeError(
                    f"unbounded in direction {primitive_signed(d)}"
                )
    verts = set()
    items = [(n, merged[n]) for n in normals]
    for i in range(len(items)):
        n1, b1 = items[i]
        for j in range(i + 1, len(items)):
            n2, b2 = items[j]
            det = n1[0] * n2[1] - n1[1] * n2[0]
            if det == 0:
                continue
            x = Fraction(b1 * n2[1] - b2 * n1[1], det)
            y = Fraction(n1[0] * b2 - n2[0] * b1, det)
            if all(pair(n, (x, y)) <= b for n, b in items):
                verts.add((x, y))
    vertices = tuple(sorted(verts))
    if not vertices:
        return Zonotope(rank=2, halfspaces=tuple(items), vertices=())
    full_dim = len(vertices) >= 3
    if full_dim:
        hs = tuple(
            (n, b) for n, b in items
            if sum(1 for v in vertices if pair(n, v) == b) >= 2
        )
    else:
        hs = tuple(items)
    return Zonotope(rank=2, halfspaces=hs, vertices=vertices)


def nabla(p: GitPresentation) -> Zonotope:
    """The stability polytope {chi : |<lam, chi>| <= eta(lam)/2 for all lam}."""
    if not is_quasi_symmetric(p):
        warnings.warn("presentation is not quasi-symmetric; polytope may degenerate",
                      stacklevel=2)
    candidates = _candidate_normals(p)
    constraints = [(lam, Fraction(eta(p, lam), 2)) for lam in candidates]
    # |<lam, chi>| <= eta/2 also bounds the opposite side
    constraints += [(vec_neg(lam), Fraction(eta(p, lam), 2)) for lam in candidates]
    return polytope_from_constraints(p.rank, constraints)


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
