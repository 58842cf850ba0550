"""Stability polytope, hyperplane arrangement and wall poset on the invariant line.

The polytope nabla is cut out by |<lam, chi>| <= eta(lam)/2 over all
cocharacters lam; eta is piecewise linear on the fan whose walls are the
hyperplanes orthogonal to the weights and roots, so the primitive ray
generators of that fan suffice as candidate normals. Everything downstream
(arrangement families, punctures on the Weyl-invariant line, wall/chamber
poset) is exact rational arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


@dataclass(frozen=True)
class Zonotope:
    """Closed polytope with exact H- and V-representations.

    halfspaces: tuple of (normal, bound) meaning <normal, chi> <= bound.
    vertices: tuple of Fraction tuples. center: the translation applied
    (origin for the untranslated stability polytope).
    """

    rank: int
    halfspaces: tuple
    vertices: tuple
    center: tuple

    def contains(self, point: Sequence) -> bool:
        if not self.vertices:
            return False
        if not self.halfspaces:
            return tuple(Fraction(x) for x in point) == self.vertices[0]
        return all(pair(n, point) <= b for n, b in self.halfspaces)

    def on_boundary(self, point: Sequence) -> bool:
        return self.contains(point) and (
            not self.halfspaces
            or any(pair(n, point) == b for n, b in self.halfspaces)
        )

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
            center=vec_add(self.center, delta),
        )

    def is_centrally_symmetric(self) -> bool:
        pts = set(self.vertices)
        c2 = tuple(2 * x for x in self.center)
        return all(tuple(c2[i] - v[i] for i in range(self.rank)) in pts for v in pts)


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
        return Zonotope(rank=rank, halfspaces=(), vertices=((Fraction(0),) * rank,),
                        center=(Fraction(0),) * rank)
    # boundedness: the kernel of the normal matrix must be trivial and the
    # normals must not all lie in a closed halfplane with 0 on its boundary
    if rank == 1:
        if not any(n[0] > 0 for n in normals) or not any(n[0] < 0 for n in normals):
            d = (1,) if any(n[0] < 0 for n in normals) else (-1,)
            raise UnboundedPolytopeError(f"unbounded in direction {d}")
        hi = min(Fraction(merged[n], n[0]) for n in normals if n[0] > 0)
        lo = max(Fraction(merged[n], n[0]) for n in normals if n[0] < 0)
        if lo > hi:
            return Zonotope(rank=1, halfspaces=tuple(merged.items()), vertices=(), center=(Fraction(0),))
        verts = ((lo,),) if lo == hi else ((lo,), (hi,))
        hs = tuple((n, merged[n]) for n in normals
                   if any(pair(n, v) == merged[n] for v in verts))
        return Zonotope(rank=1, halfspaces=hs, vertices=verts, center=(Fraction(0),))
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
        return Zonotope(rank=2, halfspaces=tuple(items), vertices=(), center=(Fraction(0),) * 2)
    full_dim = len(vertices) >= 3
    if full_dim:
        hs = tuple(
            (n, b) for n, b in items
            if sum(1 for v in vertices if pair(n, v) == b) >= 2
        )
    else:
        hs = tuple(items)
    return Zonotope(rank=2, halfspaces=hs, vertices=vertices, center=(Fraction(0), Fraction(0)))


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


@dataclass(frozen=True)
class HyperplaneFamily:
    """All lattice translates of a supporting hyperplane: <normal, chi> = c
    with c running over each offset plus any integer."""

    normal: tuple
    offsets: tuple  # Fractions in [0, 1), sorted

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


def arrangement(p: GitPresentation, z: Zonotope | None = None) -> tuple:
    """Hyperplane families spanned by lattice translates of the facet supports."""
    if z is None:
        z = nabla(p)
    fams: dict = {}
    for n, b, _sat in z.facets():
        key = primitive_signed(n)
        sign = 1 if key == n else -1
        off = (sign * b) % 1
        fams.setdefault(key, set()).add(off)
    return tuple(
        HyperplaneFamily(normal=k, offsets=tuple(sorted(v)))
        for k, v in sorted(fams.items())
    )


@dataclass(frozen=True)
class SKMSDescriptor:
    """Punctured-line data: the polytope, its arrangement, the invariant line,
    and the puncture residues modulo the unit translation.

    translation_generator is the step of the invariant-lattice action in the
    primitive parametrization of the line; since M intersect the line is
    generated by the primitive vector itself, the step is 1 whenever the line
    exists.
    """

    zonotope: Zonotope
    families: tuple
    line: tuple | None
    punctures: tuple  # Fractions in [0, 1), sorted
    N: int
    translation_generator: Fraction | None = None

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
    fams = arrangement(p, z)
    if not fams:
        return SKMSDescriptor(zonotope=z, families=(), line=None, punctures=(), N=0,
                              translation_generator=None)
    line = invariant_line(p)
    residues: set = set()
    for f in fams:
        residues.update(f.punctures_on_line(line))
    punctures = tuple(sorted(residues))
    return SKMSDescriptor(zonotope=z, families=fams, line=line,
                          punctures=punctures, N=len(punctures),
                          translation_generator=Fraction(1))


@dataclass(frozen=True)
class FacePoset:
    """Walls D_j (points) and chambers C_j (open intervals) on the invariant
    line, in the primitive parametrization. D_{-1} is the largest wall <= 0
    and C_j = (D_{j-1}, D_j)."""

    line: tuple
    points: dict  # j -> Fraction
    intervals: dict  # j -> (Fraction, Fraction)

    def point_in_ambient(self, j: int) -> tuple:
        tau = self.points[j]
        return tuple(tau * c for c in self.line)

    def interval_midpoint_in_ambient(self, j: int) -> tuple:
        lo, hi = self.intervals[j]
        mid = (lo + hi) / 2
        return tuple(mid * c for c in self.line)

    def adjacent_intervals(self, j: int) -> tuple:
        """Indices of the chambers whose closures contain the wall D_j."""
        return (j, j + 1)


def face_poset(p: GitPresentation, j_min: int, j_max: int) -> FacePoset:
    """Enumerate walls and chambers for wall indices j in [j_min, j_max].

    Intervals C_j are produced for the same index range; C_j needs D_{j-1},
    so walls are computed one step below j_min.  Walls are indexed from the
    largest puncture <= 0, so the enumerated range always spans 0 as well.
    """
    desc = skms(p)
    if desc.N == 0:
        raise ValueError("arrangement has no walls; the face poset is empty")
    if j_min > j_max:
        raise ValueError("empty index range")
    residues = desc.punctures
    lo_k = (min(j_min, 0) - len(residues) - 2) // len(residues) - 2
    hi_k = (max(j_max, 0) + len(residues) + 2) // len(residues) + 2
    all_punctures = sorted(r + k for r in residues for k in range(lo_k, hi_k + 1))
    anchor = max(i for i, v in enumerate(all_punctures) if v <= 0)
    points = {j: all_punctures[anchor + j + 1] for j in range(j_min - 1, j_max + 1)}
    intervals = {j: (points[j - 1], points[j]) for j in range(j_min, j_max + 1)}
    return FacePoset(line=desc.line, points={j: points[j] for j in range(j_min, j_max + 1)},
                     intervals=intervals)
