"""Representations of the doubled two-vertex quiver with dimension vector (1,2).

A representation consists of maps alpha: C -> C^2 and alpha_star: C^2 -> C
between the two vertices, three loops beta, gamma, delta at the 2-dimensional
vertex, and scalar parameters (t, Tbeta, Tgamma, Tdelta).  The relations force
each loop to square to a scalar and tie the loop sum to the composite
alpha.alpha_star.  This module checks the relations, decides stability for the
two GIT chambers, classifies unstable strata, and evaluates the invariant map
onto a hypersurface in A^7 together with its singular-locus membership tests.

The hypersurface F and its singular-locus generators are written once, as
the +, -, * formulas `hypersurface` and `singular_generators`, so they run on
any ring: `base_equation` and `singular_locus_check` evaluate them at a base
point (verify's quiver-sweeps), and `ncalg.substitute` on the images of the
coordinates in the contraction algebra (verify's substitution-laufer).

All arithmetic is exact.  A representation is built by `QuiverRep.from_dict`
alone (`from_chart` and `scalar_pair_rep` go through it) and stores one
integer view, `_scaled`: the least common denominator D of its 16 entries
and four parameters, and every entry and parameter times D.  Assembly
builds that view on integers: it scales the input by the lcm L of its
denominators, derives delta and the default parameters over 4 L^4 and
divides out the common factor once.  The relations, the stability and
stratum tests and the invariant map all run on the integer view;
`relations_hold` and `base_map` divide by the power of D each formula
carries.  The Fraction fields (alpha, ..., params, and t) are views of the
integer view, built on first read.  Base points stay Fraction, since they
are also read from outside input.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .exact import _Record, rational, rational_json

Vec2 = tuple[Fraction, Fraction]
Mat2 = tuple[Vec2, Vec2]

PARAM_KEYS = ("t", "Tbeta", "Tgamma", "Tdelta")
_ZERO = Fraction(0)  # every zero residual of relations_hold
_REP_KEYS = frozenset({"alpha", "alpha_star", "beta", "gamma", "delta", "params"})


def _pair(values, what: str) -> tuple:
    # a JSON array (or, from Python, a tuple) of two items: a string would
    # otherwise be read character by character
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise ValueError(f"expected a {what}")
    return values


def _vec2(values) -> list:
    # an int is read as it is; every other value goes through the codec
    return [v if type(v) is int else rational(v) for v in _pair(values, "length-2 vector")]


def _mat2(rows) -> list:
    """The four entries of a 2x2 matrix, row by row."""
    return [x for row in _pair(rows, "2x2 matrix") for x in _vec2(row)]


def _assemble(data: Mapping) -> tuple:
    """The integer view of a representation.

    data maps alpha, alpha_star, beta and gamma, and optionally delta and
    some of the parameters, to values; an absent delta is t/2 I - (beta +
    gamma + alpha alpha_star) with t = alpha_star.alpha, an absent t is that
    pairing and an absent loop parameter is entry (0, 0) of the loop's
    square.  Every value is taken times L, the lcm of the input
    denominators; t and those loop squares are then integers over L^2, the
    derived delta over 2 L^2 and its square over 4 L^4, so all twenty values
    are integers over E = 4 L^4.  D = E // gcd(E, *values) is their least
    common denominator.

    Returns (D, alpha, alpha_star, beta, gamma, delta, (t, Tbeta, Tgamma,
    Tdelta)), each item times D as ints.
    """
    raw = (_vec2(data["alpha"]) + _vec2(data["alpha_star"])
           + _mat2(data["beta"]) + _mat2(data["gamma"]))
    has_delta = data.get("delta") is not None
    if has_delta:
        raw += _mat2(data["delta"])
    given = {} if data.get("params") is None else data["params"]
    if not isinstance(given, Mapping):
        raise ValueError("params must be a mapping of parameter names to values")
    unknown = set(given) - set(PARAM_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    raw += [v if type(v) is int else rational(v) for v in given.values()]
    den = 1
    dens = [x.denominator for x in raw if type(x) is not int]
    if dens:
        den = lcm(*dens)
        raw = [x.numerator * (den // x.denominator) for x in raw]
    a0, a1, s0, s1, b00, b01, b10, b11, c00, c01, c10, c11, *rest = raw
    den2 = den * den
    scale = 4 * den2 * den2
    up1, up2 = scale // den, scale // den2  # from over L and over L^2 to over E
    t = s0 * a0 + s1 * a1
    if has_delta:
        d00, d01, d10, d11, *rest = rest
        tdelta = (d00 * d00 + d01 * d10) * up2
        delta = (d00 * up1, d01 * up1, d10 * up1, d11 * up1)
    else:
        # 2 L^2 delta = L^2 t I - 2 (L^2 beta + L^2 gamma + L alpha L alpha_star)
        d00 = t - 2 * (den * (b00 + c00) + a0 * s0)
        d01 = -2 * (den * (b01 + c01) + a0 * s1)
        d10 = -2 * (den * (b10 + c10) + a1 * s0)
        d11 = t - 2 * (den * (b11 + c11) + a1 * s1)
        tdelta = d00 * d00 + d01 * d10
        up = 2 * den2
        delta = (d00 * up, d01 * up, d10 * up, d11 * up)
    params = {"t": t * up2, "Tbeta": (b00 * b00 + b01 * b10) * up2,
              "Tgamma": (c00 * c00 + c01 * c10) * up2, "Tdelta": tdelta}
    params.update((k, v * up1) for k, v in zip(given, rest))
    values = [x * up1 for x in raw[:12]]
    values += delta
    values += [params[k] for k in PARAM_KEYS]
    g = gcd(scale, *values)
    (a0, a1, s0, s1, b00, b01, b10, b11, c00, c01, c10, c11, d00, d01, d10, d11,
     t, tb, tc, td) = [x // g for x in values]
    return (scale // g, (a0, a1), (s0, s1), ((b00, b01), (b10, b11)), ((c00, c01), (c10, c11)),
            ((d00, d01), (d10, d11)), (t, tb, tc, td))


class QuiverRep:
    """One representation with dimension vector (1, 2).

    Built only by `from_dict`, from a mapping of alpha, alpha_star, beta
    and gamma, and optionally delta and some parameters; the missing values
    are derived as in `_assemble`.  Its one state is the integer view
    `_scaled`; the fields alpha, alpha_star, beta, gamma, delta and params
    (keyed in PARAM_KEYS order) and the parameter t are Fraction views of
    it, built on first read.  Equality and the hash are those of the integer
    view, and assigning any attribute raises AttributeError.
    """

    __slots__ = ("_scaled", "__dict__")

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuiverRep":
        if not isinstance(data, Mapping):
            raise ValueError("a representation must be a JSON object")
        unknown = set(data) - _REP_KEYS
        if unknown:
            raise ValueError(f"unknown representation keys: {sorted(unknown)}")
        rep = cls.__new__(cls)
        object.__setattr__(rep, "_scaled", _assemble(data))
        return rep

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self) -> int:
        return hash(self._scaled)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(alpha={self.alpha!r}, alpha_star={self.alpha_star!r}, "
                f"beta={self.beta!r}, gamma={self.gamma!r}, delta={self.delta!r}, "
                f"params={self.params!r})")

    def _vector(self, i: int) -> Vec2:
        den, vector = self._scaled[0], self._scaled[i]
        return Fraction(vector[0], den), Fraction(vector[1], den)

    def _matrix(self, i: int) -> Mat2:
        den, (row0, row1) = self._scaled[0], self._scaled[i]
        return ((Fraction(row0[0], den), Fraction(row0[1], den)),
                (Fraction(row1[0], den), Fraction(row1[1], den)))

    alpha = cached_property(lambda self: self._vector(1))
    alpha_star = cached_property(lambda self: self._vector(2))
    beta = cached_property(lambda self: self._matrix(3))
    gamma = cached_property(lambda self: self._matrix(4))
    delta = cached_property(lambda self: self._matrix(5))

    @cached_property
    def params(self) -> dict[str, Fraction]:
        den = self._scaled[0]
        return {k: Fraction(v, den) for k, v in zip(PARAM_KEYS, self._scaled[6])}

    @cached_property
    def t(self) -> Fraction:
        return Fraction(self._scaled[6][0], self._scaled[0])

    @cached_property
    def _defects(self) -> tuple[int, tuple]:
        """The integer relation defects, evaluated once per representation."""
        return _relation_defects(self)

    @cached_property
    def relations_ok(self) -> bool:
        """The verdict of relations_hold, read from the integer defects."""
        pairing, *mats = self._defects[1]
        return pairing == 0 and not any(x for m in mats for row in m for x in row)


def from_chart(alpha, alpha_star, beta, gamma) -> QuiverRep:
    """Build a representation from chart data with delta eliminated.

    beta and gamma must be trace-free; delta and all scalar parameters are
    recovered from the relations, so relations_hold is true on the output.
    """
    rep = QuiverRep.from_dict(dict(alpha=alpha, alpha_star=alpha_star, beta=beta, gamma=gamma))
    _, _, _, ((b00, _), (_, b11)), ((c00, _), (_, c11)), _, _ = rep._scaled
    if b00 + b11 != 0 or c00 + c11 != 0:
        raise ValueError("chart loops must be trace-free")
    return rep


def _relation_defects(rep: QuiverRep) -> tuple[int, tuple]:
    """The integer core of relations_hold.

    Evaluates the relations on the integer view.  Returns D and the defects
    in the order of relations_hold's residuals: D^2 times alpha_star.alpha -
    t, D^2 times loop^2 - T.I for each loop, and 2 D^2 times the vertex-1 sum.
    """
    den, (a0, a1), (s0, s1), beta, gamma, delta, (t, tb, tc, td) = rep._scaled
    (b00, b01), (b10, b11) = beta
    (c00, c01), (c10, c11) = gamma
    (d00, d01), (d10, d11) = delta
    dt = den * t  # D^2 t

    def square_defect(m00, m01, m10, m11, param):
        diag = den * param  # D^2 T
        return ((m00 * m00 + m01 * m10 - diag, m01 * (m00 + m11)),
                (m10 * (m00 + m11), m10 * m01 + m11 * m11 - diag))

    return den, (
        s0 * a0 + s1 * a1 - dt,
        square_defect(b00, b01, b10, b11, tb),
        square_defect(c00, c01, c10, c11, tc),
        square_defect(d00, d01, d10, d11, td),
        ((2 * (a0 * s0 + den * (b00 + c00 + d00)) - dt, 2 * (a0 * s1 + den * (b01 + c01 + d01))),
         (2 * (a1 * s0 + den * (b10 + c10 + d10)), 2 * (a1 * s1 + den * (b11 + c11 + d11)) - dt)),
    )


def relations_hold(rep: QuiverRep) -> tuple[bool, dict]:
    """Evaluate all five defining relations exactly.

    Returns (ok, residuals) where residuals maps a relation name to its exact
    defect: a rational for the vertex-0 relation and a 2x2 matrix for each of
    the loop-square and vertex-1 relations.  The values are the integer
    defects of the representation divided by their scales D^2 and 2 D^2.
    """
    den, (pairing, *mats) = rep._defects
    scale = den * den
    view = lambda m, q: tuple(tuple(Fraction(n, q) if n else _ZERO for n in row) for row in m)
    residuals: dict = {"alpha_star_alpha": Fraction(pairing, scale) if pairing else _ZERO}
    for name, m in zip(("beta_square", "gamma_square", "delta_square"), mats):
        residuals[name] = view(m, scale)
    residuals["vertex1_sum"] = view(mats[3], 2 * scale)
    return rep.relations_ok, residuals


def _require_relations(rep: QuiverRep) -> None:
    if not rep.relations_ok:
        raise ValueError("representation does not satisfy the quiver relations")


def _moves_line(vector, loop) -> bool:
    (m00, m01), (m10, m11) = loop
    v0, v1 = vector
    return v0 * (m10 * v0 + m11 * v1) - v1 * (m00 * v0 + m01 * v1) != 0


def is_semistable(rep: QuiverRep, stability: str) -> bool:
    """Decide semistability for one of the two chambers.

    theta1 asks for alpha nonzero with its line moved by some loop; theta2
    asks for alpha_star nonzero with ker(alpha_star) moved by some loop.
    Lines are tested on the integer view: scaling by D moves none.
    """
    _require_relations(rep)
    _, alpha, alpha_star, *loops, _ = rep._scaled
    if stability == "theta1":
        if alpha == (0, 0):
            return False
        return any(_moves_line(alpha, m) for m in loops)
    if stability == "theta2":
        if alpha_star == (0, 0):
            return False
        kernel = (-alpha_star[1], alpha_star[0])
        return any(_moves_line(kernel, m) for m in loops)
    raise ValueError("stability must be 'theta1' or 'theta2'")


def stratum(rep: QuiverRep) -> str:
    """Classify a representation for the theta1 chamber: S0, S1 or semistable.

    On the relation scheme delta preserves the alpha line whenever beta and
    gamma do, so only those two determinant tests are needed for S1.
    """
    _require_relations(rep)
    _, alpha, _, beta, gamma, _, _ = rep._scaled
    if alpha == (0, 0):
        return "S0"
    if not _moves_line(alpha, beta) and not _moves_line(alpha, gamma):
        return "S1"
    return "semistable"


class BasePoint(_Record):
    """A point (x, y, z, t, u, v, w) of A^7 with Fraction coordinates."""

    __slots__ = ("x", "y", "z", "t", "u", "v", "w")

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
    the gauge action and satisfy `hypersurface` identically on the relation
    scheme; verify's quiver-sweeps check tests that on 10000 random integer
    charts.

    On the integer view each coordinate is one integer over a power of D:
    x = alpha_star.[beta, gamma].alpha / (2 D^4), y and z over D^3, u and w
    over D^2, v = tr(beta.gamma) / (2 D^2); t is the parameter itself.
    """
    _require_relations(rep)
    den, (a0, a1), (s0, s1), beta, gamma, _, _ = rep._scaled
    (b00, b01), (b10, b11) = beta
    (c00, c01), (c10, c11) = gamma
    contract = lambda m: s0 * (m[0][0] * a0 + m[0][1] * a1) + s1 * (m[1][0] * a0 + m[1][1] * a1)
    # [beta, gamma] is trace-free: its entry (1, 1) is minus its entry (0, 0)
    k = b01 * c10 - c01 * b10
    comm = ((k, b00 * c01 + b01 * c11 - c00 * b01 - c01 * b11),
            (b10 * c00 + b11 * c10 - c10 * b00 - c11 * b10, -k))
    den2 = den * den
    return BasePoint(  # x, y, z, t, u, v, w
        Fraction(contract(comm), 2 * den2 * den2),
        Fraction(-contract(gamma), den2 * den),
        Fraction(-contract(beta), den2 * den),
        rep.t,
        Fraction(b00 * b11 - b01 * b10, den2),
        Fraction(b00 * c00 + b01 * c10 + b10 * c01 + b11 * c11, 2 * den2),
        Fraction(c00 * c11 - c01 * c10, den2),
    )


def hypersurface(x, y, z, t, u, v, w):
    """F = x^2 + u y^2 + 2v yz + w z^2 + (uw - v^2) t^2, the base of the flop."""
    return x * x + u * y * y + 2 * v * y * z + w * z * z + (u * w - v * v) * t * t


def singular_generators(x, y, z, t, u, v, w) -> dict:
    """The seven generators of the singular locus of F = 0, by name."""
    return {
        "x": x,
        "uy+vz": u * y + v * z,
        "vy+wz": v * y + w * z,
        "z^2+ut^2": z * z + u * t * t,
        "y^2+wt^2": y * y + w * t * t,
        "yz-vt^2": y * z - v * t * t,
        "(uw-v^2)t": (u * w - v * v) * t,
    }


def base_equation(p: BasePoint) -> Fraction:
    """The value of `hypersurface` at p."""
    return hypersurface(*p.to_tuple())


class SingularReport(_Record):
    """The singular-locus generators of a base point and its components."""

    __slots__ = ("generators", "in_singular_locus", "in_z1", "in_z2", "component")


def singular_locus_check(p: BasePoint) -> SingularReport:
    """Evaluate the seven singular-locus generators and component membership.

    Z1 is the plane {x = y = z = t = 0} with coordinates (u, v, w).  Z2 is the
    closure of the t != 0 branch; clearing denominators in its defining
    relations gives z^2 + u t^2 = y^2 + w t^2 = yz - v t^2 = 0 together with
    x = 0 and uw - v^2 = 0 (the latter cuts the closure at t = 0 down to the
    degenerate-conic locus).
    """
    gens = singular_generators(*p.to_tuple())
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


def random_chart_rep(rng) -> QuiverRep:
    """Sample a chart representation with integer entries in [-5, 5]."""
    pick = lambda: rng.randint(-5, 5)
    alpha = (pick(), pick())
    alpha_star = (pick(), pick())
    b00, b01, b10 = pick(), pick(), pick()
    c00, c01, c10 = pick(), pick(), pick()
    return from_chart(
        alpha, alpha_star, ((b00, b01), (b10, -b00)), ((c00, c01), (c10, -c00))
    )


def scalar_pair_rep(rng) -> QuiverRep:
    """Sample a relation-scheme point with beta = b.I and gamma = -b.I, b != 0.

    These loops are not trace-free, so the sample is built by from_dict, not
    from_chart; every loop still squares to a scalar and the vertex relation
    holds, which makes the family a probe for the instability lemma.
    """
    pick = lambda: rng.randint(-5, 5)
    b = 0
    while b == 0:
        b = pick()
    alpha = (0, 0)
    while alpha == (0, 0):
        alpha = (pick(), pick())
    loops = {"beta": ((b, 0), (0, b)), "gamma": ((-b, 0), (0, -b))}
    return QuiverRep.from_dict(dict(loops, alpha=alpha, alpha_star=(pick(), pick())))
