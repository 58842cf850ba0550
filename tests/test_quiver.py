import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from flopwin import quiver
from flopwin.exact import rational, rational_json
from flopwin.lattice import mat_apply, mat_mul
from flopwin.quiver import (
    PARAM_KEYS,
    BasePoint,
    QuiverRep,
    base_equation,
    base_map,
    from_chart,
    is_semistable,
    random_chart_rep,
    relations_hold,
    scalar_pair_rep,
    singular_locus_check,
    stratum,
)

F = Fraction


def det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def chart(alpha=(0, 0), alpha_star=(0, 0), beta=((0, 0), (0, 0)), gamma=((0, 0), (0, 0))):
    return from_chart(alpha, alpha_star, beta, gamma)


def test_from_chart_removes_delta():
    rep = chart(alpha=(1, 0), beta=((0, 1), (0, 0)), gamma=((0, 0), (1, 0)))
    assert rep.params["t"] == 0
    assert rep.delta == ((0, -1), (-1, 0))
    ok, _ = relations_hold(rep)
    assert ok


def test_from_chart_zero_rep():
    rep = chart()
    assert rep.params == {"t": 0, "Tbeta": 0, "Tgamma": 0, "Tdelta": 0}
    ok, _ = relations_hold(rep)
    assert ok


def test_from_chart_outer_product_term():
    rep = chart(alpha=(1, 0), alpha_star=(1, 0))
    assert rep.params["t"] == 1
    assert rep.delta == ((F(-1, 2), 0), (0, F(1, 2)))
    assert rep.delta[0][0] + rep.delta[1][1] == 0
    ok, _ = relations_hold(rep)
    assert ok


def test_from_chart_rejects_traceful_loops():
    with pytest.raises(ValueError):
        from_chart((0, 0), (0, 0), ((1, 0), (0, 0)), ((0, 0), (0, 0)))


def test_relations_fail_named_residual():
    rep = QuiverRep.from_dict(
        {
            "alpha": [0, 0],
            "alpha_star": [0, 0],
            "beta": [[0, 1], [1, 1]],
            "gamma": [[0, 0], [0, 0]],
        }
    )
    ok, residuals = relations_hold(rep)
    assert not ok
    assert any(x != 0 for row in residuals["beta_square"] for x in row)
    assert residuals["alpha_star_alpha"] == 0


def test_operations_require_relations():
    rep = QuiverRep.from_dict(
        {
            "alpha": [1, 0],
            "alpha_star": [0, 0],
            "beta": [[0, 1], [1, 1]],
            "gamma": [[0, 0], [0, 0]],
        }
    )
    for call in (lambda: is_semistable(rep, "theta1"), lambda: stratum(rep), lambda: base_map(rep)):
        with pytest.raises(ValueError):
            call()


FIELDS = ("alpha", "alpha_star", "beta", "gamma", "delta", "params")


def rep_dict(rep):
    """The `QuiverRep.from_dict` input that rep's Fraction views write out."""
    return {**{name: rational_json(getattr(rep, name)) for name in FIELDS[:5]},
            "params": {k: rational_json(v) for k, v in rep.params.items()}}


def test_relations_are_evaluated_once_per_rep(monkeypatch):
    calls, builds = [], []
    real_defects, real_assemble = quiver._relation_defects, quiver._assemble
    monkeypatch.setattr(quiver, "_relation_defects", lambda rep: calls.append(rep) or real_defects(rep))
    monkeypatch.setattr(quiver, "_assemble", lambda data: builds.append(data) or real_assemble(data))
    rep = chart(alpha=(1, 2), alpha_star=(3, -1), beta=((1, 2), (0, -1)), gamma=((0, 1), (4, 0)))
    relations_hold(rep)
    base_map(rep)
    stratum(rep)
    is_semistable(rep, "theta1")
    is_semistable(rep, "theta2")
    rep_dict(rep)
    assert calls == [rep] and len(builds) == 1
    broken = QuiverRep.from_dict(
        {"alpha": [1, 0], "alpha_star": [0, 0], "beta": [[0, 1], [1, 1]], "gamma": [[0, 0], [0, 0]]}
    )
    for _ in range(3):
        with pytest.raises(ValueError):
            stratum(broken)
    assert not relations_hold(broken)[0]
    assert calls == [rep, broken] and len(builds) == 2
    # the stability and base-point reads come after the verdict, on the same view
    fresh = random_chart_rep(random.Random(3))
    is_semistable(fresh, "theta2")
    base_map(fresh)
    stratum(fresh)
    assert calls == [rep, broken, fresh] and len(builds) == 3
    # every build assembles the integer view exactly once
    pair = scalar_pair_rep(random.Random(3))
    assert len(builds) == 4
    again = QuiverRep.from_dict({name: getattr(fresh, name) for name in FIELDS})
    assert len(builds) == 5 and again == fresh
    is_semistable(pair, "theta1")
    assert calls == [rep, broken, fresh, pair] and len(builds) == 5


def test_reads_on_the_integer_view_build_no_fraction_fields(monkeypatch):
    built = []
    monkeypatch.setattr(quiver, "Fraction", lambda *args: built.append(args) or F(*args))
    monkeypatch.setattr(quiver, "rational", lambda value: built.append(value) or rational(value))
    rng = random.Random(29)
    for rep in [random_chart_rep(rng) for _ in range(20)] + [scalar_pair_rep(rng)]:
        assert rep.relations_ok
        stratum(rep)
        is_semistable(rep, "theta1")
        is_semistable(rep, "theta2")
        assert built == []
        base_map(rep)
        assert len(built) == 7  # the six computed coordinates and t
        assert not vars(rep).keys() & set(FIELDS)
        rep.beta
        assert vars(rep).keys() & set(FIELDS) == {"beta"}
        built.clear()
    with pytest.raises(AttributeError):
        rep.alpha = (0, 0)
    with pytest.raises(AttributeError):
        del rep.beta


def typed(rep):
    """Every entry of a representation with its type, parameters in key order."""
    entries = [*rep.alpha, *rep.alpha_star]
    entries += [x for m in (rep.beta, rep.gamma, rep.delta) for row in m for x in row]
    return [(type(x), x) for x in entries] + [(k, type(v), v) for k, v in rep.params.items()]


def reference_chart(alpha, alpha_star, beta, gamma):
    """Chart assembly by the explicit formulas: delta from the vertex relation
    and each loop parameter as minus the determinant of its trace-free loop."""
    a, s = tuple(map(F, alpha)), tuple(map(F, alpha_star))
    b, c = (tuple(tuple(map(F, row)) for row in m) for m in (beta, gamma))
    t = s[0] * a[0] + s[1] * a[1]
    d = tuple(
        tuple((t / 2 if i == j else 0) - b[i][j] - c[i][j] - a[i] * s[j] for j in range(2))
        for i in range(2)
    )
    params = {"t": t, "Tbeta": -det(b), "Tgamma": -det(c), "Tdelta": -det(d)}
    return QuiverRep.from_dict(dict(zip(FIELDS, (a, s, b, c, d, params))))


def reference_scalar_pair(rng):
    """scalar_pair_rep by the explicit formulas: parameters b^2, b^2 and t^2/4."""
    b = 0
    while b == 0:
        b = rng.randint(-5, 5)
    alpha = (0, 0)
    while alpha == (0, 0):
        alpha = (rng.randint(-5, 5), rng.randint(-5, 5))
    a = tuple(map(F, alpha))
    s = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
    t = s[0] * a[0] + s[1] * a[1]
    delta = tuple(
        tuple((t / 2 if i == j else 0) - a[i] * s[j] for j in range(2)) for i in range(2)
    )
    scalar = lambda k: ((F(k), F(0)), (F(0), F(k)))
    params = {"t": t, "Tbeta": F(b * b), "Tgamma": F(b * b), "Tdelta": t * t / 4}
    return QuiverRep.from_dict(dict(zip(FIELDS, (a, s, scalar(b), scalar(-b), delta, params))))


def reference_assembly(data):
    """from_dict by the explicit Fraction formulas: every value read by
    rational, delta = t/2 I - (beta + gamma + alpha alpha_star) with t the
    pairing unless given, and each missing parameter t or entry (0, 0) of its
    loop's square; the parameters are listed in PARAM_KEYS order."""
    vec = lambda values: tuple(map(rational, values))
    a, s = vec(data["alpha"]), vec(data["alpha_star"])
    b, c = tuple(map(vec, data["beta"])), tuple(map(vec, data["gamma"]))
    t = s[0] * a[0] + s[1] * a[1]
    if data.get("delta") is not None:
        d = tuple(map(vec, data["delta"]))
    else:
        d = tuple(
            tuple((t / 2 if i == j else 0) - b[i][j] - c[i][j] - a[i] * s[j] for j in range(2))
            for i in range(2)
        )
    params = {k: rational(v) for k, v in (data.get("params") or {}).items()}
    params.setdefault("t", t)
    for key, m in (("Tbeta", b), ("Tgamma", c), ("Tdelta", d)):
        params.setdefault(key, m[0][0] * m[0][0] + m[0][1] * m[1][0])
    return a, s, b, c, d, {k: params[k] for k in PARAM_KEYS}


def reference_scaled(a, s, b, c, d, params):
    """The integer view by its definition: D is the least common denominator
    of the 16 entries and the four parameters, every item is taken times D."""
    ps = tuple(params[k] for k in PARAM_KEYS)
    values = [*a, *s, *(x for m in (b, c, d) for row in m for x in row), *ps]
    den = math.lcm(*(x.denominator for x in values))
    up = lambda xs: tuple(int(x * den) for x in xs)
    return (den, up(a), up(s), *(tuple(map(up, m)) for m in (b, c, d)), up(ps))


def json_rep_file(rng):
    """A representation file as JSON reads it: ints, floats, "p/q" strings with
    denominators up to 6 and decimal strings; delta and each parameter are
    written out or left to be derived at random."""
    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return rational_json(F(rng.randint(-9, 9), rng.randint(1, 6)))
        return rng.choice((0.5, -1.25, 2.0, 0.2, "0.5", "-1.25", "2.0", "1e-1", "3E2"))
    vector = lambda: [value(), value()]
    data = {"alpha": vector(), "alpha_star": vector(), "beta": [vector(), vector()],
            "gamma": [vector(), vector()]}
    if rng.random() < 0.5:
        data["delta"] = [vector(), vector()]
    if rng.random() < 0.7:
        keys = [k for k in PARAM_KEYS if rng.random() < 0.5]
        rng.shuffle(keys)
        data["params"] = {k: value() for k in keys}
    return json.loads(json.dumps(data))


def test_assembly_matches_the_explicit_formulas():
    rng = random.Random(67)
    for _ in range(400):
        data = json_rep_file(rng)
        rep, fields = QuiverRep.from_dict(data), reference_assembly(data)
        want = SimpleNamespace(**dict(zip(FIELDS, fields)))
        assert typed(rep) == typed(want)
        assert list(rep.params) == list(want.params)
        assert rep.t == want.params["t"] and type(rep.t) is F
        assert rep_dict(rep) == rep_dict(want)
        assert rep._scaled == reference_scaled(*fields)
        same = QuiverRep.from_dict(dict(zip(FIELDS, fields)))
        assert rep == same and hash(rep) == hash(same)
        moved = dict(data, alpha=[rational_json(want.alpha[0] + F(1, 6)), data["alpha"][1]])
        assert rep != QuiverRep.from_dict(moved)
    rng = random.Random(53)
    for _ in range(300):
        pick = lambda: rng.randint(-5, 5)
        a, s = (pick(), pick()), (F(pick(), 2), str(pick()))
        b00, c00 = pick(), pick()
        b, c = ((b00, pick()), (pick(), -b00)), ((c00, pick()), (pick(), -c00))
        assert typed(from_chart(a, s, b, c)) == typed(reference_chart(a, s, b, c))
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert typed(scalar_pair_rep(ours)) == typed(reference_scalar_pair(theirs))
        assert ours.getstate() == theirs.getstate()


GOOD_FILE = {"alpha": [1, 0], "alpha_star": [2, 1], "beta": [[0, 1], [0, 0]],
             "gamma": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("change, error, message", [
    ({"alpha": [True, 0]}, TypeError, "boolean is not a rational value"),
    ({"params": {"Tbeta": False}}, TypeError, "boolean is not a rational value"),
    ({"gamma": [[0, None], [0, 0]]}, TypeError, "cannot interpret None as a rational"),
    ({"beta": [["1/0", 1], [0, 0]]}, ValueError, "zero denominator in '1/0'"),
    ({"alpha_star": [1, "1e99999"]}, ValueError, "decimal exponent beyond 4300 in '1e99999'"),
    ({"alpha": "12"}, ValueError, "expected a length-2 vector"),
    ({"beta": ["01", "00"]}, ValueError, "expected a length-2 vector"),
    ({"delta": "0000"}, ValueError, "expected a 2x2 matrix"),
    ({"delat": [[0, 0], [0, 0]]}, ValueError, "unknown representation keys: ['delat']"),
    ({"params": {"t": 1, "bogus": 2}}, ValueError, "unknown parameter keys: ['bogus']"),
    ({"params": [1]}, ValueError, "params must be a mapping of parameter names to values"),
])
def test_assembly_errors_name_the_bad_value(change, error, message):
    with pytest.raises(error) as info:
        QuiverRep.from_dict(dict(GOOD_FILE, **change))
    assert type(info.value) is error and str(info.value) == message


def reference_relations(rep):
    """relations_hold by the explicit Fraction formulas: the pairing minus t,
    each loop squared minus its parameter times I, and the vertex-1 sum
    alpha.alpha_star + beta + gamma + delta minus t/2 times I."""
    a, s, p = rep.alpha, rep.alpha_star, rep.params
    scalar = lambda i, j, x: x if i == j else F(0)
    residuals = {"alpha_star_alpha": s[0] * a[0] + s[1] * a[1] - p["t"]}
    for name, m, key in (("beta_square", rep.beta, "Tbeta"), ("gamma_square", rep.gamma, "Tgamma"),
                         ("delta_square", rep.delta, "Tdelta")):
        residuals[name] = tuple(
            tuple(m[i][0] * m[0][j] + m[i][1] * m[1][j] - scalar(i, j, p[key]) for j in range(2))
            for i in range(2)
        )
    residuals["vertex1_sum"] = tuple(
        tuple(a[i] * s[j] + rep.beta[i][j] + rep.gamma[i][j] + rep.delta[i][j]
              - scalar(i, j, p["t"] / 2) for j in range(2))
        for i in range(2)
    )
    ok = residuals["alpha_star_alpha"] == 0 and all(
        x == 0 for name in list(residuals)[1:] for row in residuals[name] for x in row
    )
    return ok, residuals


def typed_relations(ok, residuals):
    """A relations_hold result with the type of every residual and entry."""
    out = [ok, list(residuals)]
    for name, value in residuals.items():
        if isinstance(value, tuple):
            out.append((name, [(type(row), [(type(x), x) for x in row]) for row in value]))
        else:
            out.append((name, type(value), value))
    return out


def random_rep_file(rng):
    """A representation file with "p/q" entries of assorted denominators; delta
    and each parameter are written out or left to be derived at random."""
    value = lambda: rational_json(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7))))
    vector = lambda: [value(), value()]
    data = {"alpha": vector(), "alpha_star": vector(), "beta": [vector(), vector()],
            "gamma": [vector(), vector()]}
    if rng.random() < 0.5:
        data["delta"] = [vector(), vector()]
    if rng.random() < 0.5:
        data["params"] = {k: value() for k in PARAM_KEYS if rng.random() < 0.5}
    return data


def perturbed_rep_file(rng):
    """A chart representation written out in full, with one entry or one
    parameter moved by 1/q, so that only that value carries the denominator q."""
    data = rep_dict(random_chart_rep(rng))
    key = rng.choice(["alpha", "alpha_star", "beta", "gamma", "delta", "params"])
    step = F(1, rng.choice((1, 2, 3, 7, 11)))
    if key == "params":
        name = rng.choice(PARAM_KEYS)
        data["params"][name] = rational_json(rational(data["params"][name]) + step)
    else:
        row = data[key] if key.startswith("alpha") else data[key][rng.randrange(2)]
        j = rng.randrange(2)
        row[j] = rational_json(rational(row[j]) + step)
    return data


def test_relations_match_the_explicit_formulas():
    rng = random.Random(59)
    reps = [random_chart_rep(rng) for _ in range(200)]
    reps += [scalar_pair_rep(rng) for _ in range(100)]
    reps += [QuiverRep.from_dict(random_rep_file(rng)) for _ in range(300)]
    reps += [QuiverRep.from_dict(perturbed_rep_file(rng)) for _ in range(300)]
    reps.append(QuiverRep.from_dict(
        {"alpha": ["1/2", 0], "alpha_star": [1, "2/3"], "beta": [["1/5", 1], [0, 0]],
         "gamma": [[0, 0], ["3/7", 1]]}
    ))
    verdicts = set()
    for rep in reps:
        result = relations_hold(rep)
        assert typed_relations(*result) == typed_relations(*reference_relations(rep))
        assert rep.relations_ok is result[0]
        verdicts.add(result[0])
    assert verdicts == {True, False}


def reference_base_map(rep):
    """base_map by the explicit Fraction formulas: x = alpha_star.[beta,
    gamma].alpha / 2, y and z minus the contractions of gamma and beta, u and w
    their determinants and v half the trace of beta.gamma."""
    a, s, b, c = rep.alpha, rep.alpha_star, rep.beta, rep.gamma
    mul = lambda m, n: tuple(
        tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)) for i in range(2)
    )
    contract = lambda m: sum(s[i] * (m[i][0] * a[0] + m[i][1] * a[1]) for i in range(2))
    bc, cb = mul(b, c), mul(c, b)
    comm = tuple(tuple(bc[i][j] - cb[i][j] for j in range(2)) for i in range(2))
    return BasePoint(x=contract(comm) / 2, y=-contract(c), z=-contract(b), t=rep.t,
                     u=det(b), v=(bc[0][0] + bc[1][1]) / 2, w=det(c))


def reference_moves_line(vector, loop):
    image = (loop[0][0] * vector[0] + loop[0][1] * vector[1],
             loop[1][0] * vector[0] + loop[1][1] * vector[1])
    return vector[0] * image[1] - vector[1] * image[0] != 0


def reference_stability(rep):
    """(stratum, theta1, theta2) by the explicit Fraction line tests: theta1
    on the line of alpha, theta2 on ker(alpha_star), S1 when neither beta nor
    gamma moves the line of alpha."""
    a, s = rep.alpha, rep.alpha_star
    loops = (rep.beta, rep.gamma, rep.delta)
    theta1 = a != (0, 0) and any(reference_moves_line(a, m) for m in loops)
    theta2 = s != (0, 0) and any(reference_moves_line((-s[1], s[0]), m) for m in loops)
    if a == (0, 0):
        label = "S0"
    elif not reference_moves_line(a, rep.beta) and not reference_moves_line(a, rep.gamma):
        label = "S1"
    else:
        label = "semistable"
    return label, theta1, theta2


def rational_chart(rng, den):
    """A trace-free chart whose entries have denominators dividing den."""
    pick = lambda: F(rng.randint(-9, 9), rng.choice((1, den)))
    b00, c00 = pick(), pick()
    return from_chart((pick(), pick()), (pick(), pick()), ((b00, pick()), (pick(), -b00)),
                      ((c00, pick()), (pick(), -c00)))


def test_base_map_and_stability_match_the_explicit_formulas():
    rng = random.Random(61)
    reps = [random_chart_rep(rng) for _ in range(200)]
    reps += [scalar_pair_rep(rng) for _ in range(100)]
    for rep in reps[:100]:
        g = ((0, 0), (0, 0))
        while det(g) == 0:
            g = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        reps.append(gauge_transform(rep, g, F(rng.choice((1, 2, -3)), rng.choice((1, 5)))))
    reps += [rational_chart(rng, den) for den in range(1, 12) for _ in range(20)]
    # alpha = 0, on integers and on halves and thirds
    reps.append(chart(alpha_star=(1, 2), beta=((0, 1), (1, 0)), gamma=((3, -1), (2, -3))))
    reps.append(chart(alpha_star=(F(1, 3), 2), beta=((F(1, 2), 1), (0, F(-1, 2)))))
    labels = set()
    for rep in reps:
        point, want = base_map(rep), reference_base_map(rep)
        assert [(type(x), x) for x in point.to_tuple()] == [(type(x), x) for x in want.to_tuple()]
        got = (stratum(rep), is_semistable(rep, "theta1"), is_semistable(rep, "theta2"))
        assert [(type(x), x) for x in got] == [(type(x), x) for x in reference_stability(rep)]
        labels.add(got)
    assert {label for label, _, _ in labels} == {"S0", "S1", "semistable"}
    assert {theta2 for _, _, theta2 in labels} == {True, False}


def test_json_round_trip():
    rng = random.Random(7)
    rep = random_chart_rep(rng)
    again = QuiverRep.from_dict(rep_dict(rep))
    assert again == rep
    for value in (1, "zz"):
        # the key is checked before its value is read
        with pytest.raises(ValueError, match=r"unknown parameter keys: \['bogus'\]"):
            QuiverRep.from_dict(
                {"alpha": [0, 0], "alpha_star": [0, 0], "beta": [[0, 0], [0, 0]],
                 "gamma": [[0, 0], [0, 0]], "params": {"bogus": value}}
            )


def test_theta1_examples():
    moved = chart(alpha=(1, 0), beta=((0, 1), (0, 0)), gamma=((0, 0), (1, 0)))
    assert is_semistable(moved, "theta1")
    assert stratum(moved) == "semistable"

    no_alpha = chart(alpha=(0, 0), alpha_star=(1, 2), beta=((0, 1), (1, 0)))
    assert not is_semistable(no_alpha, "theta1")
    assert stratum(no_alpha) == "S0"


def test_theta2_mirrors_theta1():
    rep = chart(alpha=(0, 1), alpha_star=(1, 0), beta=((0, 0), (1, 0)))
    # ker(alpha_star) = span (0,1); beta misses it, gamma = delta contributions decide
    assert is_semistable(rep, "theta2") == any(
        v != 0 for v in (rep.beta[0][1], rep.gamma[0][1], rep.delta[0][1])
    )
    assert not is_semistable(chart(alpha=(1, 0)), "theta2")
    with pytest.raises(ValueError):
        is_semistable(rep, "theta3")


def test_shared_eigenvector_stratum():
    rep = chart(alpha=(1, 0), beta=((1, 0), (0, -1)), gamma=((2, 0), (0, -2)))
    assert stratum(rep) == "S1"
    assert not is_semistable(rep, "theta1")


def test_scalar_pair_family_is_unstable():
    rng = random.Random(11)
    for _ in range(200):
        rep = scalar_pair_rep(rng)
        ok, _ = relations_hold(rep)
        assert ok
        assert not is_semistable(rep, "theta1")
        assert stratum(rep) == "S1"


def test_base_map_symmetric_loops():
    flip = ((0, 1), (1, 0))
    rep = chart(beta=flip, gamma=flip)
    p = base_map(rep)
    assert (p.u, p.w) == (-1, -1)
    assert p.v == 1  # beta.gamma + gamma.beta = 2I fixes the sign
    assert (p.x, p.y, p.z, p.t) == (0, 0, 0, 0)
    assert base_equation(p) == 0


def test_base_map_zero_rep():
    assert base_map(chart()).to_tuple() == (0,) * 7


def test_base_identity_sweep():
    rng = random.Random(23)
    for _ in range(300):
        rep = random_chart_rep(rng)
        p = base_map(rep)
        assert base_equation(p) == 0
        label = stratum(rep)
        assert (label == "semistable") == is_semistable(rep, "theta1")
        if label == "S1":
            assert not is_semistable(rep, "theta1")
        if label == "S0":
            assert p.x == 0 and p.y == 0 and p.z == 0 and p.t == 0


def test_base_map_chart_dictionary():
    # upper-triangular loops preserve alpha = e1, so y and z collapse to
    # -t*c00 and -t*b00 and x vanishes
    rep = chart(alpha=(1, 0), alpha_star=(3, 4), beta=((2, 5), (0, -2)), gamma=((-1, 7), (0, 1)))
    p = base_map(rep)
    assert p.t == 3
    assert p.x == 0
    assert p.y == -p.t * rep.gamma[0][0]
    assert p.z == -p.t * rep.beta[0][0]


def mat2_inverse(m):
    d = F(det(m))
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


def gauge_transform(rep, g, g0):
    """Act by (g0, g) in GL1 x GL2: conjugate the loops, rescale the arrows."""
    ginv = mat2_inverse(g)
    alpha = tuple(v / g0 for v in mat_apply(g, rep.alpha))
    star_row = (
        rep.alpha_star[0] * ginv[0][0] + rep.alpha_star[1] * ginv[1][0],
        rep.alpha_star[0] * ginv[0][1] + rep.alpha_star[1] * ginv[1][1],
    )
    alpha_star = (g0 * star_row[0], g0 * star_row[1])
    conj = lambda m: mat_mul(mat_mul(g, m), ginv)
    fields = (alpha, alpha_star, conj(rep.beta), conj(rep.gamma), conj(rep.delta), rep.params)
    return QuiverRep.from_dict(dict(zip(FIELDS, fields)))


def test_gauge_invariance():
    rng = random.Random(31)
    for _ in range(60):
        rep = random_chart_rep(rng)
        while True:
            g = ((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(-4, 4), rng.randint(-4, 4)))
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] != 0:
                break
        g0 = F(rng.choice([1, 2, 3, -1, -2]))
        moved = gauge_transform(rep, g, g0)
        ok, _ = relations_hold(moved)
        assert ok
        assert base_map(moved) == base_map(rep)
        assert is_semistable(moved, "theta1") == is_semistable(rep, "theta1")
        assert stratum(moved) == stratum(rep)


def test_base_equation_values():
    assert base_equation(BasePoint.from_values([0] * 7)) == 0
    assert base_equation(BasePoint.from_values([1, 0, 0, 0, 0, 0, 0])) == 1
    rng = random.Random(41)
    for _ in range(50):
        b, c, t0 = (F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        p = BasePoint.from_values([0, b * t0, c * t0, t0, -c * c, b * c, -b * b])
        assert base_equation(p) == 0
        report = singular_locus_check(p)
        assert all(v == 0 for v in report.generators.values())
        assert report.in_z2


def test_singular_components():
    z1 = BasePoint.from_values([0, 0, 0, 0, 1, 0, 1])
    r1 = singular_locus_check(z1)
    assert r1.in_z1 and not r1.in_z2 and r1.component == "Z1"
    assert r1.in_singular_locus

    origin = singular_locus_check(BasePoint.from_values([0] * 7))
    assert origin.component == "both"

    z2 = singular_locus_check(BasePoint.from_values([0, 2, 3, 1, -9, 6, -4]))
    assert z2.component == "Z2" and z2.in_singular_locus

    generic = singular_locus_check(BasePoint.from_values([1, 1, 1, 1, 1, 1, 1]))
    assert generic.component == "neither"
    assert generic.generators["x"] == 1
    assert not generic.in_singular_locus


def _evaluate(base, poly, point):
    """A commutative polynomial over the base coordinates at a BasePoint."""
    values = [getattr(point, name) for name in base.generators]
    return sum(c * math.prod(values[i] for i in word) for word, c in poly.items())


def test_substitute_agrees_with_numeric_evaluation():
    # quiver writes the hypersurface and the singular-locus generators once,
    # as formulas that base_equation and singular_locus_check evaluate at a
    # point and ncalg.substitute runs on polynomials.  In the commutative
    # polynomial ring on the seven coordinates, substitute's polynomials must
    # take the numeric values at every point, generator by generator: on base
    # points of seeded charts, where the hypersurface vanishes, and on seeded
    # rational points off it.
    from flopwin import ncalg

    base = ncalg.NCPresentation.build([(name, 1) for name in "xyztuvw"], central="xyztuvw")
    rs = ncalg.completed(base, 4)
    coordinates = [base.gen(name) for name in base.generators]
    hypersurface = ncalg.substitute(rs, quiver.hypersurface, coordinates)
    singular = ncalg.substitute(rs, quiver.singular_generators, coordinates)
    assert len(hypersurface) == 6  # the six monomials of F, none cancelled
    rng = random.Random(11)
    pick = lambda: F(rng.randint(-9, 9), rng.randint(1, 5))
    points = [base_map(random_chart_rep(rng)) for _ in range(40)]
    points += [BasePoint(*(pick() for _ in range(7))) for _ in range(40)]
    off = 0
    for point in points:
        value = base_equation(point)
        assert _evaluate(base, hypersurface, point) == value, point.to_dict()
        off += value != 0
        gens = singular_locus_check(point).generators
        assert sorted(gens) == sorted(singular)
        for name, poly in singular.items():
            assert _evaluate(base, poly, point) == gens[name], (name, point.to_dict())
    assert off >= 30


def test_rep_compares_only_with_reps_and_shows_its_fields():
    rep = chart(alpha=(1, 2), alpha_star=(F(1, 2), 0), beta=((1, 0), (0, -1)))
    assert rep.__eq__((rep.alpha, rep.alpha_star)) is NotImplemented
    assert rep != rep._scaled and rep == chart(alpha=(1, 2), alpha_star=(F(1, 2), 0),
                                               beta=((1, 0), (0, -1)))
    assert repr(rep) == (
        f"QuiverRep(alpha={rep.alpha!r}, alpha_star={rep.alpha_star!r}, beta={rep.beta!r}, "
        f"gamma={rep.gamma!r}, delta={rep.delta!r}, params={rep.params!r})")
    assert repr(rep).startswith("QuiverRep(alpha=(Fraction(1, 1), Fraction(2, 1)), ")


def test_base_point_needs_seven_coordinates():
    for values in ([0] * 6, [0] * 8):
        with pytest.raises(ValueError, match=r"expected seven coordinates \(x, y, z, t, u, v, w\)"):
            BasePoint.from_values(values)
