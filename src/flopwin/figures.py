"""Static SVG renderings of the stability polytope and its arrangement.

Three documentation-grade figures are produced for a presentation: the
polytope with the representation weights marked, the hyperplane arrangement
with the invariant line, and the polytope with outward facet normals.  Rank-1
presentations render as intervals; presentations without a usable polytope
get a placeholder so the file set is always complete and well formed.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import GitPresentation
from .zonotope import SKMSDescriptor, UnboundedPolytopeError, Zonotope, skms

FIGURE_NAMES = ("polytope.svg", "arrangement.svg", "facets.svg")

_SCALE = 80.0
_HALF = 220.0
_SIZE = 440.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _project(point: Sequence) -> tuple[float, float]:
    """Lattice coordinates to SVG pixels; rank-1 points sit on the x axis."""
    x = float(point[0])
    y = float(point[1]) if len(point) > 1 else 0.0
    return _HALF + _SCALE * x, _HALF - _SCALE * y


def _svg(elements: Iterable[str]) -> str:
    body = "\n".join(f"  {e}" for e in elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">\n'
        f"{body}\n</svg>\n"
    )


def _axes() -> list[str]:
    return [
        f'<line x1="0" y1="{_fmt(_HALF)}" x2="{_fmt(_SIZE)}" y2="{_fmt(_HALF)}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
        f'<line x1="{_fmt(_HALF)}" y1="0" x2="{_fmt(_HALF)}" y2="{_fmt(_SIZE)}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
    ]


def _dot(point: Sequence, radius: float, color: str) -> str:
    x, y = _project(point)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{color}"/>'


def _sorted_polygon(vertices: Sequence) -> list:
    cx = sum(float(v[0]) for v in vertices) / len(vertices)
    cy = sum(float(v[1]) for v in vertices) / len(vertices)
    return sorted(vertices, key=lambda v: math.atan2(float(v[1]) - cy, float(v[0]) - cx))


def _polytope_outline(z: Zonotope) -> list[str]:
    if z.rank == 1:
        lo, hi = z.vertices[0], z.vertices[-1]
        (x1, y1), (x2, y2) = _project(lo), _project(hi)
        out = [
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#1f5fa8" stroke-width="3"/>'
        ]
        out += [_dot(v, 5, "#1f5fa8") for v in z.vertices]
        return out
    if len(z.vertices) >= 3:
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (_project(v) for v in _sorted_polygon(z.vertices))
        )
        return [
            f'<polygon points="{pts}" fill="#dce9f7" stroke="#1f5fa8" stroke-width="2"/>'
        ]
    return [_dot(v, 5, "#1f5fa8") for v in z.vertices]


def _placeholder(title: str) -> str:
    return _svg(
        [
            f'<text x="{_fmt(_HALF)}" y="{_fmt(_HALF)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="#777777">{title}: '
            "empty presentation</text>"
        ]
    )


def _polytope_figure(p: GitPresentation, z: Zonotope) -> str:
    elements = _axes() + _polytope_outline(z)
    for w in dict.fromkeys(w for w, _ in p.weights):  # each distinct weight once
        elements.append(_dot(w, 4.5, "#c0392b"))
    elements.append(
        f'<text x="12" y="24" font-family="sans-serif" font-size="14" '
        'fill="#333333">stability polytope with representation weights</text>'
    )
    return _svg(elements)


def _arrangement_figure(desc: SKMSDescriptor) -> str:
    z = desc.zonotope
    elements = _axes()
    span = 2.5
    for fam in desc.families:
        n = fam.normal
        for off in fam.offsets:
            for k in range(-3, 4):
                c = float(off + k)
                if z.rank == 1:
                    point = (c / n[0],)
                    if abs(point[0]) > span:
                        continue
                    x, y = _project(point)
                    elements.append(
                        f'<line x1="{_fmt(x)}" y1="{_fmt(y - 14)}" x2="{_fmt(x)}" '
                        f'y2="{_fmt(y + 14)}" stroke="#888888" stroke-width="1"/>'
                    )
                    continue
                # draw <n, x> = c clipped to the viewport square
                points = []
                for t in (-span, span):
                    if n[1] != 0:
                        points.append((t, (c - n[0] * t) / n[1]))
                    if n[0] != 0:
                        points.append(((c - n[1] * t) / n[0], t))
                seen = [q for q in points if abs(q[0]) <= span + 1e-9 and abs(q[1]) <= span + 1e-9]
                if len(seen) < 2:
                    continue
                (x1, y1), (x2, y2) = _project(seen[0]), _project(seen[-1])
                elements.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                    'stroke="#888888" stroke-width="1"/>'
                )
    if desc.line is not None:
        (x1, y1) = _project(tuple(-span * c for c in desc.line))
        (x2, y2) = _project(tuple(span * c for c in desc.line))
        elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#c0392b" stroke-width="2" stroke-dasharray="6 3"/>'
        )
        for r in desc.punctures:
            for k in (-1, 0, 1):
                tau = r + k
                elements.append(_dot(tuple(tau * c for c in desc.line), 4, "#c0392b"))
    elements.append(
        '<text x="12" y="24" font-family="sans-serif" font-size="14" '
        'fill="#333333">hyperplane arrangement and invariant line</text>'
    )
    return _svg(elements)


def _facet_figure(z: Zonotope) -> str:
    elements = _axes() + _polytope_outline(z)
    for n, b, sat in z.facets():
        if z.rank == 1:
            mid = sat[0]
        else:
            mid = tuple(sum(v[i] for v in sat) / Fraction(len(sat)) for i in range(2))
        norm = math.sqrt(sum(float(c) ** 2 for c in n)) or 1.0
        direction = [float(c) / norm for c in n] + [0.0]
        x1, y1 = _project(mid)
        x2 = x1 + 40.0 * direction[0]
        y2 = y1 - 40.0 * direction[1]
        elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#2c7a3f" stroke-width="2"/>'
        )
        elements.append(f'<circle cx="{_fmt(x2)}" cy="{_fmt(y2)}" r="3" fill="#2c7a3f"/>')
        label = ",".join(str(c) for c in n)
        elements.append(
            f'<text x="{_fmt(x2 + 5)}" y="{_fmt(y2 - 5)}" font-family="sans-serif" '
            f'font-size="11" fill="#2c7a3f">({label})</text>'
        )
    elements.append(
        '<text x="12" y="24" font-family="sans-serif" font-size="14" '
        'fill="#333333">facets with outward one-parameter subgroups</text>'
    )
    return _svg(elements)


def emit_figures(out_dir: str, p: GitPresentation) -> list[str]:
    """Write the three SVG figures for a presentation; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        desc = skms(p)
        usable = bool(desc.zonotope.vertices) and bool(desc.zonotope.halfspaces)
    except UnboundedPolytopeError:
        usable = False
    if usable:
        contents = {
            "polytope.svg": _polytope_figure(p, desc.zonotope),
            "arrangement.svg": _arrangement_figure(desc),
            "facets.svg": _facet_figure(desc.zonotope),
        }
    else:
        contents = {
            "polytope.svg": _placeholder("polytope"),
            "arrangement.svg": _placeholder("arrangement"),
            "facets.svg": _placeholder("facets"),
        }
    paths = []
    for name in FIGURE_NAMES:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(contents[name])
        paths.append(path)
    return paths
