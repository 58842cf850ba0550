"""Independent oracles for the benchmark's operations.

Nothing here imports flopwin.  Each oracle recomputes an expected answer from
the paper's statements or from the stated presentations, by a route separate
from the program's, and each `check_*` function returns None when the
program's output agrees and a one-line description of the first disagreement
otherwise.  `selftest.py` feeds every check a corrupted output to show that
it can fail.
"""
from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

# ---------------------------------------------------------------------------
# Known program faults.  An operation that hits one of them counts as failed
# (the run stays correct); any other disagreement makes the run incorrect.

FACE_POSET_FAULT = (
    "zonotope.face_poset takes a puncture range that need not contain 0: far "
    "faces exit 2 with 'max() arg is an empty sequence' or render the wrong walls"
)
ZERO_DENOMINATOR_FAULT = (
    "a '1/0' rational escapes as a ZeroDivisionError traceback with exit 1 "
    "instead of an input error with exit 2"
)


def known_fault(op_id: str) -> str | None:
    """The named fault an operation is known to hit, or None."""
    m = re.fullmatch(r"windows ([CD]):(-?\d+)", op_id)
    if m:
        kind, j = m.group(1), int(m.group(2))
        if j <= -9 or j >= (10 if kind == "C" else 9):
            return FACE_POSET_FAULT
        return None
    if op_id in ("quiver-check zero-denominator", "normal-form zero-denominator"):
        return ZERO_DENOMINATOR_FAULT
    return None


# ---------------------------------------------------------------------------
# Hilbert series from the stated presentations


def ctbc_dims(d: int) -> list[int]:
    """C[t, b, c] with three degree-1 generators: C(k+2, 2)."""
    return [comb(k + 2, 2) for k in range(d + 1)]


def cbc_dims(d: int) -> list[int]:
    """C[b, c]: k + 1."""
    return [k + 1 for k in range(d + 1)]


def even_series(d: int) -> list[int]:
    """Coefficients of 1/(1 - s^2)^3."""
    return [comb(k // 2 + 2, 2) if k % 2 == 0 else 0 for k in range(d + 1)]


def endg_dims(d: int) -> list[int]:
    """Ore basis beta^e gamma^f (beta^2)^i (gamma^2)^j (beta gamma + gamma beta)^l
    with e, f in {0, 1}: series (1 + s)^2 / (1 - s^2)^3."""
    e = even_series(d)
    at = lambda k: e[k] if 0 <= k <= d else 0
    return [at(k) + 2 * at(k - 1) + at(k - 2) for k in range(d + 1)]


def acon_dims(d: int) -> list[int]:
    """acon[k] = Ctbc[k] + endG[k-2] (the commutator ideal is endG shifted by 2)."""
    c, e = ctbc_dims(d), endg_dims(d)
    return [c[k] + (e[k - 2] if k >= 2 else 0) for k in range(d + 1)]


def laufer_dims(d: int) -> list[int]:
    """b (deg 3) and g (deg 2) anticommute with g^3 = b^2; reducing g^3 b both ways
    gives b^3 = -b^3, so b^j g^i with 0 <= i, j <= 2 is a basis:
    (1 + s^2 + s^4)(1 + s^3 + s^6)."""
    out = [0] * (d + 1)
    for j in range(3):
        for i in range(3):
            if 3 * j + 2 * i <= d:
                out[3 * j + 2 * i] += 1
    return out


HILBERT = {
    "acon": acon_dims,
    "endG": endg_dims,
    "Ctbc": ctbc_dims,
    "Cbc": cbc_dims,
    "afib": ctbc_dims,  # three central degree-1 generators
    "laufer_target": laufer_dims,
}


def check_dims(name: str, got, expected) -> str | None:
    got = list(got)
    if got != list(expected):
        return f"{name}: got {got}, expected {list(expected)}"
    return None


def kernel_t_dims(d: int) -> list[int]:
    """ker(right mult by t) on acon is the commutator ideal: endG[k-2], k <= d-1."""
    e = endg_dims(d)
    return [e[k - 2] if k >= 2 else 0 for k in range(d)]


def ideal_t_dims(d: int) -> list[int]:
    """acon/(t) is endG, so (t)_k = acon[k] - endG[k]."""
    a, e = acon_dims(d), endg_dims(d)
    return [a[k] - e[k] for k in range(d + 1)]


def kernel_c_dims(d: int) -> list[int]:
    """ker(right mult by the commutator) is the t ideal, source degrees k <= d-2."""
    return ideal_t_dims(d)[: d - 1]


def commutator_ideal_dims(d: int) -> list[int]:
    """acon/(commutator) is C[t, b, c], so the ideal has dims acon - Ctbc."""
    a, c = acon_dims(d), ctbc_dims(d)
    return [a[k] - c[k] for k in range(d + 1)]


# ---------------------------------------------------------------------------
# Commutative collection for normal forms
#
# A polynomial is {word: Fraction}, a word a tuple of generator indices.  Its
# commutative image sorts every word, which is the exponent vector in the
# commutative quotient (acon -> C[t, b, c], endG -> C[b, c] and the identity
# on the commutative catalog algebras).


def commutative_image(poly) -> dict:
    out: dict = {}
    for word, coeff in poly.items():
        key = tuple(sorted(word))
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return {k: v for k, v in out.items() if v != 0}


def poly_mul(a, b) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def poly_add(a, b) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def render_commutative(poly, names) -> str:
    """The CLI's rendering of a normal form whose words are sorted indices:
    leading term first under (degree, word), magnitudes as reduced fractions."""
    if not poly:
        return "0"
    parts = []
    for word in sorted(poly, key=lambda w: (len(w), w), reverse=True):
        coeff = poly[word]
        name = "*".join(names[i] for i in word) if word else "1"
        mag = abs(coeff)
        body = name if (mag == 1 and word) else (f"{mag}*{name}" if word else str(mag))
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def parse_rendered(text: str, names) -> dict:
    """Read back a rendered normal form: signed terms 'q*g*h' joined by ' + '/' - '."""
    text = text.strip()
    if text == "0":
        return {}
    index = {n: i for i, n in enumerate(names)}
    out: dict = {}
    for m in re.finditer(r"(^-|[+-] )?([^ ]+)", text):
        sign = -1 if (m.group(1) or "").startswith("-") else 1
        factors = m.group(2).split("*")
        coeff = Fraction(1)
        if re.fullmatch(r"\d+(/\d+)?", factors[0]):
            coeff = Fraction(factors.pop(0))
        word = () if factors == ["1"] or not factors else tuple(index[f] for f in factors)
        out[word] = out.get(word, Fraction(0)) + sign * coeff
    return {k: v for k, v in out.items() if v != 0}


def check_commutative_normal_form(expr, got, names) -> str | None:
    """On a commutative algebra the normal form is the collected polynomial."""
    want = render_commutative(commutative_image(expr), names)
    have = got if isinstance(got, str) else render_commutative(commutative_image(got), names)
    if isinstance(got, dict) and any(list(w) != sorted(w) for w in got):
        return f"normal form {got} has an unsorted word"
    if have != want:
        return f"normal form {have!r}, expected {want!r}"
    return None


def check_quotient_image(expr, got) -> str | None:
    """A noncommutative normal form agrees with its input in the commutative quotient."""
    if commutative_image(expr) != commutative_image(got):
        return "normal form and input differ in the commutative quotient"
    return None


# ---------------------------------------------------------------------------
# Symmetric algebras of GL(2) representations

IRREPS = {"O": (0, 0), "V": (1, 0), "Vstar": (0, -1), "D": (1, 1), "S2V": (2, 0),
          "S2Vm1": (1, -1)}


def weights(names) -> list[tuple[int, int]]:
    out = []
    for n in names:
        p, q = IRREPS[n]
        out.extend((p - k, q + k) for k in range(p - q + 1))
    return out


def sym_total_dims(n_weights: int, d: int) -> list[int]:
    """dim Sym^k of an n-dimensional space: C(k + n - 1, n - 1)."""
    return [comb(k + n_weights - 1, n_weights - 1) for k in range(d + 1)]


def brute_multiplicity(label, names, d: int) -> list[int]:
    """Multiplicity of the irreducible (p, q) in Sym^k, k <= d, by listing monomials.

    A GL(2) character's multiplicity of (p, q) is the weight multiplicity at
    (p, q) minus the one at (p + 1, q - 1).
    """
    ws = weights(names)
    p, q = label
    out = []
    for k in range(d + 1):
        at = below = 0
        for mono in combinations_with_replacement(range(len(ws)), k):
            e1 = sum(ws[i][0] for i in mono)
            e2 = sum(ws[i][1] for i in mono)
            at += (e1, e2) == (p, q)
            below += (e1, e2) == (p + 1, q - 1)
        out.append(at - below)
    return out


# ---------------------------------------------------------------------------
# Windows by Picard periodicity from the paper's tables at j in [-2, 2]
#
# A class is (a, i): Sym^a V twisted by i, with a = -1 standing for the rank-1
# class O(i).  Shifting a face index by 2 twists every class by O(1).

PAPER_WINDOWS = {
    "C": {-2: "⟨O(-1), V(-1)⟩", -1: "⟨O, V(-1)⟩", 0: "⟨O, V⟩", 1: "⟨O(1), V⟩",
          2: "⟨O(1), V(1)⟩"},
    "D": {-2: "⟨O(-1), V(-1), O⟩", -1: "⟨O, V, V(-1), Sym^2V(-1)⟩", 0: "⟨O, V, O(1)⟩",
          1: "⟨O(1), V(1), V, Sym^2V⟩", 2: "⟨O(1), V(1), O(2)⟩"},
}

_CLASS = re.compile(r"(O|V|Sym\^(\d+)V)(?:\((-?\d+)\))?")


def parse_window(text: str) -> list[tuple[int, int]]:
    body = text.strip()
    if not (body.startswith("⟨") and body.endswith("⟩")):
        raise ValueError(f"not a window: {text!r}")
    out = []
    for item in body[1:-1].split(", "):
        m = _CLASS.fullmatch(item)
        if not m:
            raise ValueError(f"unknown class {item!r}")
        a = -1 if m.group(1) == "O" else (1 if m.group(1) == "V" else int(m.group(2)))
        out.append((a, int(m.group(3) or 0)))
    return out


def render_window(classes) -> str:
    names = []
    for a, i in classes:
        base = "O" if a == -1 else ("V" if a == 1 else f"Sym^{a}V")
        names.append(base if i == 0 else f"{base}({i})")
    return "⟨" + ", ".join(names) + "⟩"


def window_oracle(kind: str, j: int) -> str:
    j0 = 0 if j % 2 == 0 else -1
    shift = (j - j0) // 2
    return render_window((a, i + shift) for a, i in parse_window(PAPER_WINDOWS[kind][j0]))


def check_window(kind: str, j: int, rc: int, stdout: str) -> str | None:
    want = window_oracle(kind, j)
    if rc != 0:
        return f"exit {rc}, expected {want}"
    if stdout.strip() != want:
        return f"rendered {stdout.strip()}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# Moduli descriptor and wall-crossing generators as the paper states them

SKMS = {
    # hexagon |a|, |b|, |a + b| <= 1; residues 0 and 1/2 per unit translation
    "universal_flop_length2.json": {
        "N": 2,
        "punctures": ["0", "1/2"],
        "normals": {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)},
        "vertices": {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)},
    },
    # the conifold's segment [-1, 1] with one residue
    "conifold.json": {"N": 1, "punctures": ["0"], "normals": {(1,), (-1,)},
                      "vertices": {(1,), (-1,)}},
}


def check_skms(fixture: str, rc: int, payload) -> str | None:
    want = SKMS[fixture]
    if rc != 0 or not isinstance(payload, dict):
        return f"exit {rc}"
    if payload.get("N") != want["N"] or payload.get("punctures") != want["punctures"]:
        return f"N={payload.get('N')} punctures={payload.get('punctures')}"
    normals = {tuple(h["normal"]) for h in payload.get("halfspaces", [])}
    bounds = {Fraction(h["bound"]) for h in payload.get("halfspaces", [])}
    vertices = {tuple(int(Fraction(x)) for x in v) for v in payload.get("vertices", [])}
    if normals != want["normals"] or bounds != {1} or vertices != want["vertices"]:
        return "polytope differs from the stated one"
    return None


PAPER_KAPPA = {
    ("D:-2", "C:-2"): {((0, 0), (-1, -1)): "O_S0"},
    ("D:-1", "C:0"): {
        ((1, 0), (-1, -1)): "O_S0(V)",
        ((1, 0), (0, -1)): "sigma_* O(Q)",
        ((1, -1), (0, -1)): "sigma_* O(Q^2 D^-1)",
    },
}


def check_kappa(wall: str, chamber: str, rc: int, payload) -> str | None:
    if rc != 0 or not isinstance(payload, list):
        return f"exit {rc}"
    got = {(tuple(g["chi_class"]), tuple(g["cocharacter"])): g["object"] for g in payload}
    if got != PAPER_KAPPA[(wall, chamber)]:
        return f"generators {got}"
    return None


def check_figures(rc: int, payload, out_dir: str) -> str | None:
    if rc != 0 or not isinstance(payload, dict):
        return f"exit {rc}"
    files = payload.get("files", [])
    if len(files) != 3:
        return f"{len(files)} files"
    for path in files:
        if os.path.dirname(os.path.abspath(path)) != os.path.abspath(out_dir):
            return f"{path} is outside the output directory"
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            return f"{path}: {exc}"
        if not root.tag.endswith("svg"):
            return f"{path}: root element {root.tag}"
    return None


VERIFY_CHECKS = (
    "zonotope-hrep", "skms-residues", "window-tables", "kappa-generators",
    "hilbert-series", "graded-kernels", "fiber-product", "substitution-laufer",
    "cohomology-suite", "quiver-sweeps",
)


def check_verify(rc: int, payload) -> str | None:
    if rc != 0 or not isinstance(payload, dict):
        return f"exit {rc}"
    names = [c.get("name") for c in payload.get("checks", [])]
    if names != list(VERIFY_CHECKS):
        return f"checks {names}"
    failing = [c["name"] for c in payload["checks"] if c.get("pass") is not True]
    if failing or payload.get("overall") is not True:
        return f"failing checks {failing}"
    return None


def check_input_error(rc: int, stdout: str, stderr: str) -> str | None:
    """Bad input must exit 2 with a one-line error and no traceback."""
    if rc != 2 or "Traceback" in stderr or stdout.strip():
        return f"exit {rc}" + (" with a traceback" if "Traceback" in stderr else "")
    return None


# ---------------------------------------------------------------------------
# Integer-only quiver arithmetic
#
# Vectors and loops are integer tuples.  delta = t/2 - (beta + gamma + alpha
# alpha*) is carried as D2 = 2 delta, scalar parameters as 4 T, so every
# quantity below stays integral.


def _mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def _vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _lin(*terms):
    """Sum of scaled 2x2 matrices: _lin((2, A), (-1, B)) = 2A - B."""
    return tuple(tuple(sum(k * m[i][j] for k, m in terms) for j in range(2)) for i in range(2))


def _outer(a, s):
    return ((a[0] * s[0], a[0] * s[1]), (a[1] * s[0], a[1] * s[1]))


_I = ((1, 0), (0, 1))


def _moves(v, m) -> bool:
    """Whether the loop m moves the line through v (v nonzero)."""
    w = _vec(m, v)
    return v[0] * w[1] - v[1] * w[0] != 0


def delta2(a, s, b, c, t=None):
    """2 delta from the vertex relation; t defaults to alpha* alpha."""
    t = s[0] * a[0] + s[1] * a[1] if t is None else t
    return _lin((t, _I), (-2, b), (-2, c), (-2, _outer(a, s)))


def theta1_semistable(a, loops) -> bool:
    return a != (0, 0) and any(_moves(a, m) for m in loops)


def theta2_semistable(s, loops) -> bool:
    return s != (0, 0) and any(_moves((-s[1], s[0]), m) for m in loops)


def chart_expectation(a, s, b, c) -> dict:
    """Everything the chart pipeline reports, for trace-free integer loops."""
    t = s[0] * a[0] + s[1] * a[1]
    d2 = delta2(a, s, b, c)
    loops = (b, c, d2)  # scaling delta by 2 moves no line
    contract = lambda m: sum(s[i] * _vec(m, a)[i] for i in range(2))
    comm = _lin((1, _mul(b, c)), (-1, _mul(c, b)))
    x2, y, z = contract(comm), -contract(c), -contract(b)
    u, w = det2(b), det2(c)
    v2 = _mul(b, c)[0][0] + _mul(b, c)[1][1]
    # 4 x (x^2 + u y^2 + 2 v y z + w z^2 + (u w - v^2) t^2)
    eq4 = x2 * x2 + 4 * u * y * y + 4 * v2 * y * z + 4 * w * z * z + (4 * u * w - v2 * v2) * t * t
    gens4 = {  # each singular-locus generator times 4
        "x": 2 * x2, "uy+vz": 4 * u * y + 2 * v2 * z, "vy+wz": 2 * v2 * y + 4 * w * z,
        "z^2+ut^2": 4 * (z * z + u * t * t), "y^2+wt^2": 4 * (y * y + w * t * t),
        "yz-vt^2": 4 * y * z - 2 * v2 * t * t, "(uw-v^2)t": (4 * u * w - v2 * v2) * t,
    }
    in_z1 = x2 == 0 and y == 0 and z == 0 and t == 0
    in_z2 = (x2 == 0 and gens4["z^2+ut^2"] == 0 and gens4["y^2+wt^2"] == 0
             and gens4["yz-vt^2"] == 0 and 4 * u * w - v2 * v2 == 0)
    if a == (0, 0):
        stratum = "S0"
    elif not theta1_semistable(a, loops):
        stratum = "S1"
    else:
        stratum = "semistable"
    return {
        "t": t, "d2": d2,
        "point2": (x2, 2 * y, 2 * z, 2 * t, 2 * u, v2, 2 * w),  # 2 (x, y, z, t, u, v, w)
        "eq4": eq4,
        "stratum": stratum,
        "theta1": theta1_semistable(a, loops),
        "theta2": theta2_semistable(s, loops),
        "gens4": gens4,
        "in_locus": all(g == 0 for g in gens4.values()),
        "z1": in_z1, "z2": in_z2,
        "component": "both" if in_z1 and in_z2 else "Z1" if in_z1 else "Z2" if in_z2 else "neither",
    }


def scaled(value, scale: int) -> int:
    """scale * value for an int, Fraction or 'p/q' string, which must be integral."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        num, den = int(num), int(den or 1)
    else:
        num, den = value.numerator, value.denominator
    if (num * scale) % den:
        raise ValueError(f"{value} times {scale} is not an integer")
    return num * scale // den


def check_chart(inputs, rep, point, equation, stratum, theta1, theta2, report) -> str | None:
    a, s, b, c = inputs
    want = chart_expectation(a, s, b, c)
    try:
        if scaled(rep.params["t"], 2) != 2 * want["t"]:
            return "t differs"
        if tuple(tuple(scaled(x, 2) for x in row) for row in rep.delta) != want["d2"]:
            return "delta differs"
        if tuple(scaled(x, 2) for x in point.to_tuple()) != want["point2"]:
            return f"base point {point.to_dict()}"
        if scaled(equation, 4) != want["eq4"] or want["eq4"] != 0:
            return f"hypersurface value {equation} (oracle {Fraction(want['eq4'], 4)})"
        if {k: scaled(v, 4) for k, v in report.generators.items()} != want["gens4"]:
            return "singular-locus generators differ"
    except ValueError as exc:
        return str(exc)
    if stratum != want["stratum"]:
        return f"stratum {stratum}, expected {want['stratum']}"
    if (theta1, theta2) != (want["theta1"], want["theta2"]):
        return f"stability {(theta1, theta2)}, expected {(want['theta1'], want['theta2'])}"
    got = (report.in_singular_locus, report.in_z1, report.in_z2, report.component)
    expect = (want["in_locus"], want["z1"], want["z2"], want["component"])
    if got != expect:
        return f"singular report {got}, expected {expect}"
    return None


def check_scalar_pair(rep, theta1: bool) -> str | None:
    """beta = b I, gamma = -b I with the vertex relation: alpha's line is fixed
    by every loop, so the point is theta1-unstable (the instability lemma)."""
    try:
        a = tuple(scaled(x, 1) for x in rep.alpha)
        s = tuple(scaled(x, 1) for x in rep.alpha_star)
        b = tuple(tuple(scaled(x, 1) for x in row) for row in rep.beta)
        c = tuple(tuple(scaled(x, 1) for x in row) for row in rep.gamma)
        d2 = tuple(tuple(scaled(x, 2) for x in row) for row in rep.delta)
    except ValueError as exc:
        return str(exc)
    k = b[0][0]
    if k == 0 or b != ((k, 0), (0, k)) or c != ((-k, 0), (0, -k)) or a == (0, 0):
        return "sample is not a scalar pair"
    if d2 != delta2(a, s, b, c):
        return "vertex relation fails"
    if theta1 or theta1_semistable(a, (b, c, d2)):
        return "scalar pair is theta1-semistable"
    return None


def rep_expectation(data: dict) -> dict:
    """Relation residuals of a representation file (alpha_star_alpha times 2, the
    matrix residuals times 4), filling in delta and the parameters the way the
    file format says when they are omitted."""
    a = tuple(scaled(x, 1) for x in data["alpha"])
    s = tuple(scaled(x, 1) for x in data["alpha_star"])
    b = tuple(tuple(scaled(x, 1) for x in row) for row in data["beta"])
    c = tuple(tuple(scaled(x, 1) for x in row) for row in data["gamma"])
    pairing = s[0] * a[0] + s[1] * a[1]
    if data.get("delta") is not None:
        d2 = tuple(tuple(scaled(x, 2) for x in row) for row in data["delta"])
    else:
        d2 = delta2(a, s, b, c, pairing)
    doubled = {"Tbeta": _lin((2, b)), "Tgamma": _lin((2, c)), "Tdelta": d2}  # 2 X
    params = data.get("params") or {}
    t2 = scaled(params["t"], 2) if "t" in params else 2 * pairing
    res: dict = {"alpha_star_alpha": 2 * pairing - t2}
    for name, key in (("beta_square", "Tbeta"), ("gamma_square", "Tgamma"),
                      ("delta_square", "Tdelta")):
        sq4 = _mul(doubled[key], doubled[key])  # 4 X^2
        t4 = scaled(params[key], 4) if key in params else sq4[0][0]
        res[name] = _lin((1, sq4), (-t4, _I))
    res["vertex1_sum"] = _lin((4, _outer(a, s)), (4, b), (4, c), (2, d2), (-t2, _I))  # 4 x
    ok = res["alpha_star_alpha"] == 0 and all(
        res[k] == ((0, 0), (0, 0))
        for k in ("beta_square", "gamma_square", "delta_square", "vertex1_sum"))
    res["ok"] = ok
    return res


def check_relations(data: dict, ok: bool, residuals: dict) -> str | None:
    """Compare relations_hold's verdict and exact residuals with the integer ones."""
    try:
        want = rep_expectation(data)
        if ok != want["ok"]:
            return f"relations_hold {ok}, expected {want['ok']}"
        if scaled(residuals["alpha_star_alpha"], 2) != want["alpha_star_alpha"]:
            return "alpha_star_alpha residual differs"
        for name in ("beta_square", "gamma_square", "delta_square"):
            got = tuple(tuple(scaled(x, 4) for x in row) for row in residuals[name])
            if got != want[name]:
                return f"{name} residual differs"
        got = tuple(tuple(scaled(x, 4) for x in row) for row in residuals["vertex1_sum"])
        if got != want["vertex1_sum"]:
            return "vertex1_sum residual differs"
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_quiver_cli(data: dict, stability: str, rc: int, stdout: str) -> str | None:
    """`quiver check` on a representation file: relation verdict and residuals,
    then stability, stratum, base point and hypersurface value."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"exit {rc} without a JSON payload"
    want_ok = rep_expectation(data)["ok"]
    if rc != (0 if want_ok else 1):
        return f"exit {rc}"
    if not want_ok:
        return check_relations(data, payload.get("relations_hold"), payload.get("residuals", {}))
    if payload.get("relations_hold") is not True or payload.get("stability") != stability:
        return "relations reported as failing"
    a, s = tuple(data["alpha"]), tuple(data["alpha_star"])
    b = tuple(tuple(r) for r in data["beta"])
    c = tuple(tuple(r) for r in data["gamma"])
    want = chart_expectation(a, s, b, c)
    try:
        point = tuple(scaled(payload["base_point"][k], 2) for k in "xyztuvw")
        if point != want["point2"]:
            return f"base point {payload['base_point']}"
        if scaled(payload["base_equation"], 4) != want["eq4"]:
            return f"hypersurface value {payload['base_equation']}"
    except (KeyError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if payload.get("stratum") != want["stratum"]:
        return f"stratum {payload.get('stratum')}, expected {want['stratum']}"
    if payload.get("semistable") != want[stability]:
        return f"semistable {payload.get('semistable')}, expected {want[stability]}"
    return None
