"""Window subcategories, wall subcategory generators and K-theory classes.

A chamber C_j on the invariant line determines the window: the dominant
classes of the lattice points of the polytope translated to any interior
point. A wall D_j determines the bigger window of its closed translate. The
wall-crossing generators pair each lattice character lost when shrinking the
wall polytope to the lower chamber with the inner normals of the facets it
sits on, filtered by sign against the chamber direction and normalized into
the weakly-decreasing cocharacter chamber.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import ceil, floor

from .exact import _Record, combine
from .lattice import (
    GitPresentation,
    dominant_representative,
    mat_apply,
    mat_inverse_transpose,
    pair,
    vec_neg,
    vec_sub,
)
from .zonotope import SKMSDescriptor, Zonotope, skms


class FaceRef(_Record):
    """A chamber C_j (kind "C") or a wall D_j (kind "D") on the invariant line."""

    __slots__ = ("kind", "j")

    @classmethod
    def parse(cls, text: str) -> "FaceRef":
        try:
            kind, _, idx = text.partition(":")
            kind = kind.strip().upper()
            if kind not in ("C", "D"):
                raise ValueError
            return cls(kind=kind, j=int(idx))
        except ValueError:
            raise ValueError(
                f"bad face reference {text!r}; expected forms like C:0 or D:-1"
            ) from None

    def __str__(self) -> str:
        return f"{self.kind}:{self.j}"


def rep_name(dominant: Sequence) -> str:
    """Render a dominant weight: (a+i, i) is Sym^a V(i), with O and V short forms."""
    if len(dominant) == 1:
        i = dominant[0]
        return "O" if i == 0 else f"O({i})"
    a = dominant[0] - dominant[1]
    i = dominant[1]
    if a < 0:
        raise ValueError(f"{tuple(dominant)} is not dominant")
    twist = "" if i == 0 else f"({i})"
    if a == 0:
        return f"O{twist}" if twist else "O"
    if a == 1:
        return f"V{twist}"
    return f"Sym^{a}V{twist}"


def lattice_points(z: Zonotope) -> tuple:
    """All lattice points of the closed polytope, sorted."""
    if not z.vertices:
        return ()
    axes = (
        range(ceil(min(v[i] for v in z.vertices)), floor(max(v[i] for v in z.vertices)) + 1)
        for i in range(z.rank)
    )
    return tuple(pt for pt in product(*axes) if z.contains(pt))


class WindowSpec(_Record):
    """Generator classes of a window, with the lattice points behind them.

    classes are dominant weights in display order.
    """

    __slots__ = ("face", "classes", "names", "lattice", "boundary")

    def render(self) -> str:
        return "⟨" + ", ".join(self.names) + "⟩"

    def to_jsonable(self) -> dict:
        return {
            "face": self.face,
            "classes": [list(c) for c in self.classes],
            "names": list(self.names),
            "lattice": [list(p) for p in self.lattice],
            "boundary": [list(p) for p in self.boundary],
        }


def _classes(p: GitPresentation, points: Sequence) -> set:
    """Dominant representatives of the Weyl orbits through the points."""
    return {dominant_representative(p, pt) for pt in points}


def _class_sort_key(dom: Sequence):
    if len(dom) == 1:
        return (0, dom[0])
    a = dom[0] - dom[1]
    return (a, dom[1])


def _boundary_points(z: Zonotope, points: tuple) -> tuple:
    """Those of points, all lattice points of z, that lie on a bounding hyperplane.

    A polytope with no halfspaces is a single point, all of it boundary.
    """
    if not z.halfspaces:
        return points
    return tuple(pt for pt in points if any(pair(n, pt) == b for n, b in z.halfspaces))


def _chamber_points(desc: SKMSDescriptor, j: int) -> tuple:
    """Lattice points of the polytope translated into the open chamber C_j.

    The set is computed at three interior points of the chamber and must be
    boundary-free and constant across them.
    """
    lo, hi = desc.wall(j - 1), desc.wall(j)
    sets = []
    for tau in ((lo + hi) / 2, lo + (hi - lo) / 3, lo + (hi - lo) * 2 / 3):
        zt = desc.zonotope.translate(desc.at(tau))
        pts = lattice_points(zt)
        if _boundary_points(zt, pts):
            raise ValueError(
                f"lattice point on the boundary at interior sample {tau} of C:{j}"
            )
        sets.append(pts)
    if any(s != sets[0] for s in sets[1:]):
        raise ValueError(f"lattice points vary across the open chamber C:{j}")
    return sets[0]


def _spec(ref: FaceRef, classes: Sequence, points: tuple, boundary: tuple) -> WindowSpec:
    return WindowSpec(
        face=str(ref),
        classes=tuple(classes),
        names=tuple(rep_name(c) for c in classes),
        lattice=points,
        boundary=boundary,
    )


def window(p: GitPresentation, ref: FaceRef) -> WindowSpec:
    """Window of a chamber C_j: classes of the open-interval translate."""
    if ref.kind != "C":
        raise ValueError(f"window expects a chamber reference, got {ref}")
    points = _chamber_points(skms(p), ref.j)
    classes = sorted(_classes(p, points), key=_class_sort_key)
    return _spec(ref, classes, points, ())


def big_window(p: GitPresentation, ref: FaceRef) -> WindowSpec:
    """Window of a closed wall translate D_j.

    Display order: the adjacent chamber window on the even side first (lower
    chamber C_j for even j, upper chamber C_{j+1} for odd j), then the
    remaining classes sorted by symmetric power and twist.
    """
    if ref.kind != "D":
        raise ValueError(f"big_window expects a wall reference, got {ref}")
    desc = skms(p)
    zt = desc.zonotope.translate(desc.at(desc.wall(ref.j)))
    points = lattice_points(zt)
    classes = _classes(p, points)
    lead = classes & _classes(p, _chamber_points(desc, ref.j if ref.j % 2 == 0 else ref.j + 1))
    ordered = sorted(lead, key=_class_sort_key) + sorted(classes - lead, key=_class_sort_key)
    return _spec(ref, ordered, points, _boundary_points(zt, points))


def is_weakly_decreasing(lam: Sequence) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def nu_filter(epsilon: Sequence, lam: Sequence) -> bool:
    """Membership in the destabilizing cone: weakly decreasing coordinates
    and strictly positive pairing with the chamber direction epsilon."""
    return is_weakly_decreasing(lam) and pair(lam, epsilon) > 0


class KappaGenerator(_Record):
    """One wall subcategory generator: a dominant character class paired with
    a normalized destabilizing cocharacter, plus display names."""

    __slots__ = ("chi_class", "cocharacter", "b_weight", "chi_name", "object_name")

    def key(self) -> tuple:
        return (self.chi_class, self.cocharacter)


def _line_bundle_name(b_weight: Sequence) -> str:
    """Render the character (m, n) as the line bundle Q^(n-m) D^m."""
    m, n = b_weight
    qexp = n - m
    parts = []
    if qexp != 0:
        parts.append("Q" if qexp == 1 else f"Q^{qexp}")
    if m != 0:
        parts.append("D" if m == 1 else f"D^{m}")
    return " ".join(parts) if parts else "O"


def _object_name(p: GitPresentation, b_weight: tuple, lam: tuple) -> str:
    weyl_fixed = all(
        mat_apply(mat_inverse_transpose(g), lam) == lam for g in p.weyl
    )
    if weyl_fixed:
        if len(b_weight) == 1:
            twist = rep_name(b_weight)
            return "O_S0" if twist == "O" else f"O_S0({twist})"
        m, n = b_weight
        if n < m:
            raise ValueError(f"character {b_weight} has no sections on the flag fiber")
        sections = (n, m)  # highest weight of the pushforward
        twist = rep_name(sections)
        return "O_S0" if twist == "O" else f"O_S0({twist})"
    return f"sigma_* O({_line_bundle_name(b_weight)})"


def kappa_generators(p: GitPresentation, dref: FaceRef, cref: FaceRef) -> tuple:
    """Generators of the wall subcategory for the crossing (D_j, adjacent C).

    The character set is the lattice-point difference between the wall
    polytope and the lower adjacent chamber; each character is paired with
    the primitive inner normals of the wall-polytope facets containing it.
    Pairs are Weyl-normalized into weakly decreasing cocharacters and kept
    when the cocharacter pairs positively against the downward chamber
    direction. Calling with the upper chamber gives the same normalized set:
    the chamber only selects which side the sign filter reads, and the
    mirrored run is re-expressed through the lower chamber.
    """
    if dref.kind != "D" or cref.kind != "C":
        raise ValueError(f"expected a wall and a chamber, got {dref} and {cref}")
    if cref.j not in (dref.j, dref.j + 1):
        raise ValueError(f"{cref} is not adjacent to {dref}")
    j = dref.j
    desc = skms(p)
    lo, d = desc.wall(j - 1), desc.wall(j)
    d_point = desc.at(d)
    zt = desc.zonotope.translate(d_point)
    low = set(_chamber_points(desc, j))
    diff = [pt for pt in lattice_points(zt) if pt not in low]
    epsilon = vec_sub(desc.at((lo + d) / 2), d_point)

    facets = zt.facets()
    group_elements = p.weyl_elements()
    actions = [(g, mat_inverse_transpose(g)) for g in group_elements]

    collected: dict = {}
    for chi in diff:
        for n, b, _sat in facets:
            if pair(n, chi) != b:
                continue
            lam = vec_neg(n)
            normalized = None
            for g, gstar in actions:
                lam_n = mat_apply(gstar, lam)
                if is_weakly_decreasing(lam_n):
                    normalized = (mat_apply(g, chi), lam_n)
                    break
            if normalized is None:
                continue
            chi_n, lam_n = normalized
            if not nu_filter(epsilon, lam_n):
                continue
            rep = dominant_representative(p, chi_n)
            collected.setdefault((rep, lam_n), set()).add(chi_n)

    out = []
    for (rep, lam_n), b_weights in sorted(collected.items()):
        anti = [w for w in b_weights if is_weakly_decreasing(tuple(reversed(w)))]
        b_weight = min(anti) if anti else min(b_weights)
        out.append(
            KappaGenerator(
                chi_class=rep,
                cocharacter=lam_n,
                b_weight=b_weight,
                chi_name=rep_name(rep),
                object_name=_object_name(p, b_weight, lam_n),
            )
        )
    return tuple(out)


def k_class(terms: Sequence) -> dict:
    """Alternating K-theory class of a resolution, + on the term nearest the
    sheaf (the last list in ``terms``)."""
    return combine(((-1) ** i, {tuple(w): 1})
                   for i, term in enumerate(reversed(terms)) for w in term)
