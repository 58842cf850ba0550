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

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Sequence

from .lattice import (
    GitPresentation,
    dominant_representative,
    mat_apply,
    mat_inverse_transpose,
    pair,
    vec_neg,
    vec_sub,
)
from .zonotope import Zonotope, face_poset, nabla


@dataclass(frozen=True)
class FaceRef:
    kind: str  # "C" (chamber) or "D" (wall)
    j: int

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
    out = []
    if z.rank == 1:
        lo = min(v[0] for v in z.vertices)
        hi = max(v[0] for v in z.vertices)
        for x in range(ceil(lo), floor(hi) + 1):
            if z.contains((x,)):
                out.append((x,))
        return tuple(out)
    lo0 = min(v[0] for v in z.vertices)
    hi0 = max(v[0] for v in z.vertices)
    lo1 = min(v[1] for v in z.vertices)
    hi1 = max(v[1] for v in z.vertices)
    for x in range(ceil(lo0), floor(hi0) + 1):
        for y in range(ceil(lo1), floor(hi1) + 1):
            if z.contains((x, y)):
                out.append((x, y))
    return tuple(sorted(out))


def boundary_lattice_points(z: Zonotope) -> tuple:
    return tuple(pt for pt in lattice_points(z) if z.on_boundary(pt))


@dataclass(frozen=True)
class WindowSpec:
    """Generator classes of a window, with the lattice points behind them."""

    face: str
    classes: tuple  # dominant weights, display order
    names: tuple
    lattice: tuple
    boundary: tuple

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


def _group_classes(p: GitPresentation, points: Sequence) -> dict:
    """Dominant representative -> sorted orbit points present."""
    groups: dict = {}
    for pt in points:
        rep, _ = dominant_representative(p, pt)
        groups.setdefault(rep, []).append(pt)
    return groups


def _class_sort_key(dom: Sequence):
    if len(dom) == 1:
        return (0, dom[0])
    a = dom[0] - dom[1]
    return (a, dom[1])


def window(p: GitPresentation, ref: FaceRef, _sample_checks: bool = True) -> WindowSpec:
    """Window of a chamber C_j: classes of the open-interval translate.

    The lattice-point set is checked at three interior points of the chamber
    and must be boundary-free and constant across them.
    """
    if ref.kind != "C":
        raise ValueError(f"window expects a chamber reference, got {ref}")
    poset = face_poset(p, ref.j, ref.j)
    lo, hi = poset.intervals[ref.j]
    z = nabla(p)
    samples = [Fraction(lo + hi, 2)]
    if _sample_checks:
        samples += [lo + (hi - lo) / 3, lo + (hi - lo) * 2 / 3]
    sets = []
    for tau in samples:
        delta = tuple(tau * c for c in poset.line)
        zt = z.translate(delta)
        pts = lattice_points(zt)
        if boundary_lattice_points(zt):
            raise ValueError(
                f"lattice point on the boundary at interior sample {tau} of {ref}"
            )
        sets.append(pts)
    if any(s != sets[0] for s in sets[1:]):
        raise ValueError(f"lattice points vary across the open chamber {ref}")
    points = sets[0]
    groups = _group_classes(p, points)
    classes = tuple(sorted(groups, key=_class_sort_key))
    return WindowSpec(
        face=str(ref),
        classes=classes,
        names=tuple(rep_name(c) for c in classes),
        lattice=points,
        boundary=(),
    )


def big_window(p: GitPresentation, ref: FaceRef) -> WindowSpec:
    """Window of a closed wall translate D_j.

    Display order: the adjacent chamber window on the even side first (lower
    chamber C_j for even j, upper chamber C_{j+1} for odd j), then the
    remaining classes sorted by symmetric power and twist.
    """
    if ref.kind != "D":
        raise ValueError(f"big_window expects a wall reference, got {ref}")
    poset = face_poset(p, ref.j, ref.j)
    delta = poset.point_in_ambient(ref.j)
    zt = nabla(p).translate(delta)
    points = lattice_points(zt)
    boundary = boundary_lattice_points(zt)
    groups = _group_classes(p, points)
    lead_j = ref.j if ref.j % 2 == 0 else ref.j + 1
    lead = window(p, FaceRef("C", lead_j), _sample_checks=False)
    ordered = [c for c in lead.classes if c in groups]
    ordered += sorted((c for c in groups if c not in ordered), key=_class_sort_key)
    classes = tuple(ordered)
    return WindowSpec(
        face=str(ref),
        classes=classes,
        names=tuple(rep_name(c) for c in classes),
        lattice=points,
        boundary=boundary,
    )


def is_weakly_decreasing(lam: Sequence) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def nu_filter(epsilon: Sequence, lam: Sequence) -> bool:
    """Membership in the destabilizing cone: weakly decreasing coordinates
    and strictly positive pairing with the chamber direction epsilon."""
    return is_weakly_decreasing(lam) and pair(lam, epsilon) > 0


@dataclass(frozen=True)
class KappaGenerator:
    """One wall subcategory generator: a dominant character class paired with
    a normalized destabilizing cocharacter, plus display names."""

    chi_class: tuple
    cocharacter: tuple
    b_weight: tuple
    chi_name: str
    object_name: str

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
    poset = face_poset(p, j, j + 1)
    d_point = poset.point_in_ambient(j)
    low = FaceRef("C", j)

    wall = big_window(p, dref)
    low_window = window(p, low, _sample_checks=False)
    diff = [pt for pt in wall.lattice if pt not in set(low_window.lattice)]
    epsilon = vec_sub(poset.interval_midpoint_in_ambient(j), d_point)

    zt = nabla(p).translate(d_point)
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
            rep, _ = dominant_representative(p, chi_n)
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
    out: dict = {}
    for i, term in enumerate(reversed(list(terms))):
        sign = 1 if i % 2 == 0 else -1
        for w in term:
            w = tuple(w)
            out[w] = out.get(w, 0) + sign
            if out[w] == 0:
                del out[w]
    return out
