"""Representations of the doubled two-vertex quiver with dimension vector (1,2).

A representation consists of maps alpha: C -> C^2 and alpha_star: C^2 -> C
between the two vertices, three loops beta, gamma, delta at the 2-dimensional
vertex, and scalar parameters (t, Tbeta, Tgamma, Tdelta).  The relations force
each loop to square to a scalar and tie the loop sum to the composite
alpha.alpha_star.  This module checks the relations, decides stability for the
two GIT chambers, classifies unstable strata, and evaluates the invariant map
onto a hypersurface in A^7 together with its singular-locus membership tests.

All arithmetic is exact over Fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import rational, rational_json

Vec2 = tuple[Fraction, Fraction]
Mat2 = tuple[Vec2, Vec2]

PARAM_KEYS = ("t", "Tbeta", "Tgamma", "Tdelta")


def _vec2(values) -> Vec2:
    vals = tuple(rational(v) for v in values)
    if len(vals) != 2:
        raise ValueError("expected a length-2 vector")
    return vals  # type: ignore[return-value]


def _mat2(rows) -> Mat2:
    out = tuple(_vec2(row) for row in rows)
    if len(out) != 2:
        raise ValueError("expected a 2x2 matrix")
    return out  # type: ignore[return-value]


ZERO2: Mat2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))


def mat2_identity(scale: Fraction = Fraction(1)) -> Mat2:
    return ((scale, Fraction(0)), (Fraction(0), scale))


def mat2_add(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )  # type: ignore[return-value]


def mat2_sub(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )  # type: ignore[return-value]


def mat2_mul(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )  # type: ignore[return-value]


def mat2_vec(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat2_det(m: Mat2) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_trace(m: Mat2) -> Fraction:
    return m[0][0] + m[1][1]


def mat2_inverse(m: Mat2) -> Mat2:
    d = mat2_det(m)
    if d == 0:
        raise ValueError("matrix is singular")
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


def outer(col: Vec2, row: Vec2) -> Mat2:
    return ((col[0] * row[0], col[0] * row[1]), (col[1] * row[0], col[1] * row[1]))


def _is_zero_mat(m: Mat2) -> bool:
    return all(x == 0 for row in m for x in row)


@dataclass(frozen=True)
class QuiverRep:
    """One representation with dimension vector (1, 2)."""

    alpha: Vec2
    alpha_star: Vec2
    beta: Mat2
    gamma: Mat2
    delta: Mat2
    params: Mapping[str, Fraction]

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuiverRep":
        alpha = _vec2(data["alpha"])
        alpha_star = _vec2(data["alpha_star"])
        beta = _mat2(data["beta"])
        gamma = _mat2(data["gamma"])
        t = alpha_star[0] * alpha[0] + alpha_star[1] * alpha[1]
        if "delta" in data and data["delta"] is not None:
            delta = _mat2(data["delta"])
        else:
            delta = mat2_sub(
                mat2_identity(t / 2), mat2_add(mat2_add(beta, gamma), outer(alpha, alpha_star))
            )
        if "params" in data and data["params"] is not None:
            params = {k: rational(v) for k, v in data["params"].items()}
            unknown = set(params) - set(PARAM_KEYS)
            if unknown:
                raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        else:
            params = {}
        params.setdefault("t", t)
        for key, loop in (("Tbeta", beta), ("Tgamma", gamma), ("Tdelta", delta)):
            params.setdefault(key, mat2_mul(loop, loop)[0][0])
        return cls(alpha, alpha_star, beta, gamma, delta, params)

    def to_dict(self) -> dict:
        return {
            "alpha": rational_json(self.alpha),
            "alpha_star": rational_json(self.alpha_star),
            "beta": rational_json(self.beta),
            "gamma": rational_json(self.gamma),
            "delta": rational_json(self.delta),
            "params": {k: rational_json(self.params[k]) for k in PARAM_KEYS},
        }

    @property
    def t(self) -> Fraction:
        return self.params["t"]


def from_chart(alpha, alpha_star, beta, gamma) -> QuiverRep:
    """Build a representation from chart data with delta eliminated.

    beta and gamma must be trace-free; delta and all scalar parameters are
    recovered from the relations, so relations_hold is true on the output.
    """
    a = _vec2(alpha)
    s = _vec2(alpha_star)
    b = _mat2(beta)
    c = _mat2(gamma)
    if mat2_trace(b) != 0 or mat2_trace(c) != 0:
        raise ValueError("chart loops must be trace-free")
    t = s[0] * a[0] + s[1] * a[1]
    d = mat2_sub(mat2_identity(t / 2), mat2_add(mat2_add(b, c), outer(a, s)))
    params = {
        "t": t,
        "Tbeta": -mat2_det(b),
        "Tgamma": -mat2_det(c),
        "Tdelta": -mat2_det(d),
    }
    return QuiverRep(a, s, b, c, d, params)


def relations_hold(rep: QuiverRep) -> tuple[bool, dict]:
    """Evaluate all five defining relations exactly.

    Returns (ok, residuals) where residuals maps a relation name to its exact
    defect: a rational for the vertex-0 relation and a 2x2 matrix for each of
    the loop-square and vertex-1 relations.
    """
    t = rep.params["t"]
    pairing = rep.alpha_star[0] * rep.alpha[0] + rep.alpha_star[1] * rep.alpha[1]
    residuals: dict = {"alpha_star_alpha": pairing - t}
    for name, loop, key in (
        ("beta_square", rep.beta, "Tbeta"),
        ("gamma_square", rep.gamma, "Tgamma"),
        ("delta_square", rep.delta, "Tdelta"),
    ):
        residuals[name] = mat2_sub(mat2_mul(loop, loop), mat2_identity(rep.params[key]))
    lhs = mat2_add(
        outer(rep.alpha, rep.alpha_star), mat2_add(mat2_add(rep.beta, rep.gamma), rep.delta)
    )
    residuals["vertex1_sum"] = mat2_sub(lhs, mat2_identity(t / 2))
    ok = residuals["alpha_star_alpha"] == 0 and all(
        _is_zero_mat(residuals[k]) for k in ("beta_square", "gamma_square", "delta_square", "vertex1_sum")
    )
    return ok, residuals


def _require_relations(rep: QuiverRep) -> None:
    ok, _ = relations_hold(rep)
    if not ok:
        raise ValueError("representation does not satisfy the quiver relations")


def _moves_line(vector: Vec2, loop: Mat2) -> bool:
    image = mat2_vec(loop, vector)
    return vector[0] * image[1] - vector[1] * image[0] != 0


def is_semistable(rep: QuiverRep, stability: str) -> bool:
    """Decide semistability for one of the two chambers.

    theta1 asks for alpha nonzero with its line moved by some loop; theta2
    asks for alpha_star nonzero with ker(alpha_star) moved by some loop.
    """
    _require_relations(rep)
    loops = (rep.beta, rep.gamma, rep.delta)
    if stability == "theta1":
        if rep.alpha == (0, 0):
            return False
        return any(_moves_line(rep.alpha, m) for m in loops)
    if stability == "theta2":
        if rep.alpha_star == (0, 0):
            return False
        kernel: Vec2 = (-rep.alpha_star[1], rep.alpha_star[0])
        return any(_moves_line(kernel, m) for m in loops)
    raise ValueError("stability must be 'theta1' or 'theta2'")


def stratum(rep: QuiverRep) -> str:
    """Classify a representation for the theta1 chamber: S0, S1 or semistable.

    On the relation scheme delta preserves the alpha line whenever beta and
    gamma do, so only those two determinant tests are needed for S1.
    """
    _require_relations(rep)
    if rep.alpha == (0, 0):
        return "S0"
    if not _moves_line(rep.alpha, rep.beta) and not _moves_line(rep.alpha, rep.gamma):
        return "S1"
    return "semistable"


@dataclass(frozen=True)
class BasePoint:
    x: Fraction
    y: Fraction
    z: Fraction
    t: Fraction
    u: Fraction
    v: Fraction
    w: Fraction

    def to_tuple(self) -> tuple[Fraction, ...]:
        return (self.x, self.y, self.z, self.t, self.u, self.v, self.w)

    def to_dict(self) -> dict:
        return {k: rational_json(v) for k, v in zip("xyztuvw", self.to_tuple())}

    @classmethod
    def from_values(cls, values: Sequence) -> "BasePoint":
        vals = [rational(v) for v in values]
        if len(vals) != 7:
            raise ValueError("expected seven coordinates (x, y, z, t, u, v, w)")
        return cls(*vals)


def base_map(rep: QuiverRep) -> BasePoint:
    """Evaluate the seven basic invariants of a relation-scheme point.

    The loop invariants are the scalars with beta^2 = -u, gamma^2 = -w and
    beta.gamma + gamma.beta = 2v on trace-free loops; x, y, z contract the
    loops with alpha and alpha_star.  These expressions are invariant under
    the gauge action and satisfy base_equation identically on the relation
    scheme (checked symbolically and by randomized exact sweeps).
    """
    _require_relations(rep)
    a, s, b, c = rep.alpha, rep.alpha_star, rep.beta, rep.gamma
    t = s[0] * a[0] + s[1] * a[1]
    comm = mat2_sub(mat2_mul(b, c), mat2_mul(c, b))

    def contract(m: Mat2) -> Fraction:
        mv = mat2_vec(m, a)
        return s[0] * mv[0] + s[1] * mv[1]

    return BasePoint(
        x=contract(comm) / 2,
        y=-contract(c),
        z=-contract(b),
        t=t,
        u=mat2_det(b),
        w=mat2_det(c),
        v=mat2_trace(mat2_mul(b, c)) / 2,
    )


def base_equation(p: BasePoint) -> Fraction:
    """The hypersurface x^2 + u y^2 + 2v yz + w z^2 + (uw - v^2) t^2."""
    return (
        p.x * p.x
        + p.u * p.y * p.y
        + 2 * p.v * p.y * p.z
        + p.w * p.z * p.z
        + (p.u * p.w - p.v * p.v) * p.t * p.t
    )


SINGULAR_GENERATORS = ("x", "uy+vz", "vy+wz", "z^2+ut^2", "y^2+wt^2", "yz-vt^2", "(uw-v^2)t")


def singular_locus_generators(p: BasePoint) -> dict[str, Fraction]:
    return {
        "x": p.x,
        "uy+vz": p.u * p.y + p.v * p.z,
        "vy+wz": p.v * p.y + p.w * p.z,
        "z^2+ut^2": p.z * p.z + p.u * p.t * p.t,
        "y^2+wt^2": p.y * p.y + p.w * p.t * p.t,
        "yz-vt^2": p.y * p.z - p.v * p.t * p.t,
        "(uw-v^2)t": (p.u * p.w - p.v * p.v) * p.t,
    }


@dataclass(frozen=True)
class SingularReport:
    generators: Mapping[str, Fraction]
    in_singular_locus: bool
    in_z1: bool
    in_z2: bool
    component: str

    def to_dict(self) -> dict:
        return {
            "generators": {k: rational_json(v) for k, v in self.generators.items()},
            "in_singular_locus": self.in_singular_locus,
            "in_z1": self.in_z1,
            "in_z2": self.in_z2,
            "component": self.component,
        }


def singular_locus_check(p: BasePoint) -> SingularReport:
    """Evaluate the seven singular-locus generators and component membership.

    Z1 is the plane {x = y = z = t = 0} with coordinates (u, v, w).  Z2 is the
    closure of the t != 0 branch; clearing denominators in its defining
    relations gives z^2 + u t^2 = y^2 + w t^2 = yz - v t^2 = 0 together with
    x = 0 and uw - v^2 = 0 (the latter cuts the closure at t = 0 down to the
    degenerate-conic locus).
    """
    gens = singular_locus_generators(p)
    in_locus = all(v == 0 for v in gens.values())
    in_z1 = p.x == 0 and p.y == 0 and p.z == 0 and p.t == 0
    in_z2 = (
        p.x == 0
        and gens["z^2+ut^2"] == 0
        and gens["y^2+wt^2"] == 0
        and gens["yz-vt^2"] == 0
        and p.u * p.w - p.v * p.v == 0
    )
    if in_z1 and in_z2:
        component = "both"
    elif in_z1:
        component = "Z1"
    elif in_z2:
        component = "Z2"
    else:
        component = "neither"
    return SingularReport(gens, in_locus, in_z1, in_z2, component)


def conic_discriminant(u, v, w) -> Fraction:
    """Discriminant uw - v^2 of the conic family over the (u, v, w) plane."""
    return rational(u) * rational(w) - rational(v) * rational(v)


def gauge_transform(rep: QuiverRep, g: Mat2, g0: Fraction = Fraction(1)) -> QuiverRep:
    """Act by (g0, g) in GL1 x GL2: conjugate the loops, rescale the arrows."""
    g = _mat2(g)
    g0 = rational(g0)
    if g0 == 0:
        raise ValueError("g0 must be invertible")
    ginv = mat2_inverse(g)
    alpha = tuple(v / g0 for v in mat2_vec(g, rep.alpha))
    star_row = (
        rep.alpha_star[0] * ginv[0][0] + rep.alpha_star[1] * ginv[1][0],
        rep.alpha_star[0] * ginv[0][1] + rep.alpha_star[1] * ginv[1][1],
    )
    alpha_star = (g0 * star_row[0], g0 * star_row[1])
    conj = lambda m: mat2_mul(mat2_mul(g, m), ginv)
    return QuiverRep(
        alpha,  # type: ignore[arg-type]
        alpha_star,
        conj(rep.beta),
        conj(rep.gamma),
        conj(rep.delta),
        dict(rep.params),
    )


def random_chart_rep(rng, bound: int = 5) -> QuiverRep:
    """Sample a chart representation with integer entries in [-bound, bound]."""
    pick = lambda: rng.randint(-bound, bound)
    alpha = (pick(), pick())
    alpha_star = (pick(), pick())
    b00, b01, b10 = pick(), pick(), pick()
    c00, c01, c10 = pick(), pick(), pick()
    return from_chart(
        alpha, alpha_star, ((b00, b01), (b10, -b00)), ((c00, c01), (c10, -c00))
    )


def scalar_pair_rep(rng, bound: int = 5) -> QuiverRep:
    """Sample a relation-scheme point with beta = b.I and gamma = -b.I, b != 0.

    These loops are not trace-free, so the representation is assembled
    directly; every loop still squares to a scalar and the vertex relation
    holds, which makes the family a probe for the instability lemma.
    """
    b = 0
    while b == 0:
        b = rng.randint(-bound, bound)
    alpha = (0, 0)
    while alpha == (0, 0):
        alpha = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    a = _vec2(alpha)
    s = _vec2((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    t = s[0] * a[0] + s[1] * a[1]
    beta = mat2_identity(Fraction(b))
    gamma = mat2_identity(Fraction(-b))
    delta = mat2_sub(mat2_identity(t / 2), outer(a, s))
    params = {
        "t": t,
        "Tbeta": Fraction(b * b),
        "Tgamma": Fraction(b * b),
        "Tdelta": t * t / 4,
    }
    return QuiverRep(a, s, beta, gamma, delta, params)
