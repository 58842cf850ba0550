"""quiver-sweep: in-process chart sampling, instability probes and JSON ingest.

Only flopwin.quiver runs; ncalg and cohomology stay idle.  One round is
  * CHART chart samples (integer entries in [-5, 5], trace-free loops, the
    distribution of quiver.random_chart_rep) through from_chart, base_map,
    base_equation, stratum, is_semistable for theta1 and theta2 and
    singular_locus_check;
  * SCALAR scalar_pair_rep samples, each checked theta1-unstable;
  * INGEST representation files as JSON text with "p/q" entries, read back
    through QuiverRep.from_dict and relations_hold; about PERTURBED of them
    have one entry moved by 1 so that a relation fails.
Every round repeats the same inputs, drawn from the seed during set-up.
"""
from __future__ import annotations

import json
import random
from math import gcd

import oracles

IMPORTS = "import flopwin.quiver"
CHART, SCALAR, INGEST = 1000, 100, 300
PERTURBED = 0.2
BOUND = 5


def _rational(num: int, den: int):
    """num/den as a JSON int or a reduced "p/q" string."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else f"{num}/{den}"


def _chart_draw(rng):
    pick = lambda: rng.randint(-BOUND, BOUND)
    a, s = (pick(), pick()), (pick(), pick())
    b00, b01, b10, c00, c01, c10 = (pick() for _ in range(6))
    return a, s, ((b00, b01), (b10, -b00)), ((c00, c01), (c10, -c00))


def rep_file(rng, perturb: bool) -> dict:
    """A representation file for one chart draw; delta and the parameters are
    written out (as "p/q" where needed) unless the seed chooses to omit them."""
    a, s, b, c = _chart_draw(rng)
    data = {"alpha": list(a), "alpha_star": list(s),
            "beta": [list(r) for r in b], "gamma": [list(r) for r in c]}
    if perturb or rng.random() < 0.5:
        t = s[0] * a[0] + s[1] * a[1]
        d2 = oracles.delta2(a, s, b, c)
        data["delta"] = [[_rational(x, 2) for x in row] for row in d2]
        data["params"] = {
            "t": t,
            "Tbeta": -oracles.det2(b),
            "Tgamma": -oracles.det2(c),
            "Tdelta": _rational(-oracles.det2(d2), 4),
        }
    if perturb:
        where = rng.choice(("beta", "delta", "t", "Tgamma"))
        if where == "beta":
            data["beta"][0][1] += 1
        elif where == "delta":
            data["delta"][1][0] = _rational(oracles.delta2(a, s, b, c)[1][0] + 2, 2)
        else:
            data["params"][where] = _rational(oracles.scaled(data["params"][where], 2) + 2, 2)
    return data


def build(seed: int, workdir: str) -> dict:
    rng = random.Random(f"quiver-sweep/{seed}")
    chart = [_chart_draw(rng) for _ in range(CHART)]
    ingest = []
    for _ in range(INGEST):
        data = rep_file(rng, rng.random() < PERTURBED)
        ingest.append((json.dumps(data), data))
    return {"chart": chart, "ingest": ingest, "scalar_seed": f"quiver-sweep/{seed}/scalar"}


def run_round(inputs: dict, run) -> None:
    from flopwin import quiver

    for sample in inputs["chart"]:
        try:
            with run.op("chart"):
                rep = run.call("quiver.from_chart", quiver.from_chart, *sample)
                point = run.call("quiver.base_map", quiver.base_map, rep)
                value = run.call("quiver.base_equation", quiver.base_equation, point)
                label = run.call("quiver.stratum", quiver.stratum, rep)
                ss1 = run.call("quiver.is_semistable", quiver.is_semistable, rep, "theta1")
                ss2 = run.call("quiver.is_semistable", quiver.is_semistable, rep, "theta2")
                report = run.call("quiver.singular_locus_check", quiver.singular_locus_check, point)
        except (ArithmeticError, ValueError, TypeError) as exc:
            run.settle("chart", f"{type(exc).__name__}: {exc}")
            continue
        run.settle("chart", oracles.check_chart(sample, rep, point, value, label, ss1, ss2, report))

    rng = random.Random(inputs["scalar_seed"])
    for _ in range(SCALAR):
        try:
            with run.op("scalar"):
                rep = run.call("quiver.scalar_pair_rep", quiver.scalar_pair_rep, rng)
                ss1 = run.call("quiver.is_semistable", quiver.is_semistable, rep, "theta1")
        except (ArithmeticError, ValueError, TypeError) as exc:
            run.settle("scalar", f"{type(exc).__name__}: {exc}")
            continue
        run.settle("scalar", oracles.check_scalar_pair(rep, ss1))

    for text, data in inputs["ingest"]:
        try:
            with run.op("ingest"):
                rep = run.call("quiver.from_dict", quiver.QuiverRep.from_dict, json.loads(text))
                ok, residuals = run.call("quiver.relations_hold", quiver.relations_hold, rep)
        except (ArithmeticError, ValueError, TypeError, KeyError) as exc:
            run.settle("ingest", f"{type(exc).__name__}: {exc}")
            continue
        run.settle("ingest", oracles.check_relations(data, ok, residuals))


def report(run) -> dict:
    return {
        "chart_samples_per_s": (CHART / run.round_median(["chart"]), "1/s"),
        "ingest_reps_per_s": (INGEST / run.round_median(["ingest"]), "1/s"),
    }
