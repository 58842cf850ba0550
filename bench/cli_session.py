"""cli-session: what a user runs, one `python -m flopwin.cli` process per query.

One round runs `verify --suite all`, then the seeded query mix in a seeded
order:
  * ncalg normal-form: seeded products of linear forms on Ctbc, Cbc and afib,
    two-sided multiples of a defining relation of acon and endG, and seeded
    acon/endG expressions whose printed normal form is fed back in;
  * ncalg hilbert for every catalog algebra at the default degree;
  * coh multiplicity for seeded irreducibles and summand lists;
  * quiver check on seeded valid and perturbed representation files;
  * skms on both fixtures, windows --face C:j and D:j for j in [-12, 12],
    kappa on the two tabulated wall/chamber pairs and figures;
  * one '1/0' representation file and one '1/0*t' expression.
Processes run one at a time.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from functools import partial

import algebra_ladder
import oracles
import quiver_sweep
from harness import percentile

IMPORTS = "import flopwin.cli"
CATALOG = ("Cbc", "Ctbc", "acon", "afib", "endG", "laufer_target")
COMMUTATIVE_NF, MULTIPLE_NF, FEEDBACK_NF = 2, 6, 4  # per algebra, total, total
COH_QUERIES, COH_MAX_DEGREE = 8, 8
VALID_REPS, PERTURBED_REPS = 5, 3
FACES = range(-12, 13)
# a query's reported in-CLI time is attributed to the module that does the work
MODULE = {"skms": "zonotope", "windows": "windows", "kappa": "windows",
          "ncalg-hilbert": "ncalg", "ncalg-normal-form": "ncalg",
          "coh-multiplicity": "cohomology", "quiver-check": "quiver", "figures": "figures"}
VERIFY_MODULE = {"zonotope-hrep": "zonotope", "skms-residues": "zonotope",
                 "window-tables": "windows", "kappa-generators": "windows",
                 "hilbert-series": "ncalg", "graded-kernels": "ncalg", "fiber-product": "ncalg",
                 "substitution-laufer": "ncalg", "cohomology-suite": "cohomology",
                 "quiver-sweeps": "quiver"}


def render_expr(poly, names) -> str:
    """An expression string the CLI parses, one signed term per monomial."""
    parts = []
    for word, coeff in sorted(poly.items()):
        body = "*".join([str(coeff)] + [names[i] for i in word])
        parts.append(body if coeff >= 0 else f"({body})")
    return " + ".join(parts) if parts else "0"


def build(seed: int, workdir: str) -> dict:
    """Query list for one round; rep files and the figure directory go to workdir."""
    from flopwin import cohomology, ncalg

    rng = random.Random(f"cli-session/{seed}")
    gens = {name: ncalg.catalog(name).generators for name in algebra_ladder.NF_ALGEBRAS}
    queries = []  # steps: each runs its processes and settles them, given (run, env)

    def query(kind, op_id, argv, check):
        """One process; check(rc, stdout, stderr) returns a problem or None."""
        queries.append(partial(_ask, kind, op_id, argv, check))

    def nf_query(name, text, check, op_id=None):
        query("ncalg-normal-form", op_id or f"normal-form {name} {text}",
              ["ncalg", "normal-form", "--algebra", name, f"--expr={text}"], check)

    for name in algebra_ladder.COMMUTATIVE:
        for _ in range(COMMUTATIVE_NF):
            expr = algebra_ladder.random_expression(rng, len(gens[name]))
            nf_query(name, render_expr(expr, gens[name]),
                     lambda rc, out, err, expr=expr, names=gens[name]: f"exit {rc}" if rc else
                     oracles.check_commutative_normal_form(expr, out.strip(), names))
    for _ in range(MULTIPLE_NF):
        name = rng.choice(("acon", "endG"))
        rels = ncalg.catalog(name).all_relations()
        expr = algebra_ladder.relation_multiple(rng, rels, len(gens[name]))
        nf_query(name, render_expr(expr, gens[name]),
                 lambda rc, out, err: f"exit {rc}" if rc else
                 (None if out.strip() == "0" else f"reduced to {out.strip()}"))
    for i in range(FEEDBACK_NF):
        name = "acon" if i % 2 == 0 else "endG"
        expr = algebra_ladder.random_expression(rng, len(gens[name]))
        queries.append(partial(_feedback, f"normal-form {name} feedback #{i}", name, gens[name],
                               expr))
    nf_query("acon", "1/0*t", oracles.check_input_error, op_id="normal-form zero-denominator")

    for name in CATALOG:
        query("ncalg-hilbert", f"hilbert {name}", ["ncalg", "hilbert", "--algebra", name],
              lambda rc, out, err, name=name: f"exit {rc}" if rc else oracles.check_dims(
                  name, json.loads(out)["dims"], oracles.HILBERT[name](12)))

    irreps = sorted(cohomology.IRREP_NAMES)
    for _ in range(COH_QUERIES):
        names = [rng.choice(irreps) for _ in range(rng.randint(1, 3))]
        label = rng.choice([oracles.IRREPS[rng.choice(irreps)],
                            (rng.randint(-1, 3), rng.randint(-3, 0))])
        label = (max(label), min(label))
        d = rng.randint(COH_MAX_DEGREE - 3, COH_MAX_DEGREE)
        # '=' keeps argparse from reading a label like -1,-2 as an option
        argv = ["coh", "multiplicity", f"--irrep={label[0]},{label[1]}",
                f"--sym={','.join(names)}", f"--max-degree={d}"]
        query("coh-multiplicity", f"coh {label} {names} d={d}", argv,
              lambda rc, out, err, label=label, names=names, d=d:
              f"exit {rc}" if rc else oracles.check_dims(
                  "multiplicities", json.loads(out)["multiplicities"],
                  oracles.brute_multiplicity(label, names, d)))

    reps = [quiver_sweep.rep_file(rng, False) for _ in range(VALID_REPS)]
    reps += [quiver_sweep.rep_file(rng, True) for _ in range(PERTURBED_REPS)]
    for i, data in enumerate(reps):
        path = os.path.join(workdir, f"rep{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        stability = rng.choice(("theta1", "theta2"))
        query("quiver-check", f"quiver check rep{i} {stability}",
              ["quiver", "check", "--rep", path, "--stability", stability],
              lambda rc, out, err, data=data, stability=stability:
              oracles.check_quiver_cli(data, stability, rc, out))
    zero = os.path.join(workdir, "zero-denominator.json")
    with open(zero, "w", encoding="utf-8") as handle:
        json.dump({"alpha": [1, 0], "alpha_star": [2, 1], "beta": [["1/0", 1], [0, 1]],
                   "gamma": [[0, 0], [1, 0]]}, handle)
    query("quiver-check", "quiver-check zero-denominator", ["quiver", "check", "--rep", zero],
          oracles.check_input_error)

    for fixture in oracles.SKMS:
        query("skms", f"skms {fixture}", ["skms", "--input", fixture],
              lambda rc, out, err, fixture=fixture: oracles.check_skms(fixture, rc, _json(out)))
    for kind in "CD":
        for j in FACES:
            query("windows", f"windows {kind}:{j}", ["windows", "--face", f"{kind}:{j}"],
                  lambda rc, out, err, kind=kind, j=j: oracles.check_window(kind, j, rc, out))
    for wall, chamber in oracles.PAPER_KAPPA:
        query("kappa", f"kappa {wall} {chamber}", ["kappa", "--wall", wall, "--chamber", chamber],
              lambda rc, out, err, wall=wall, chamber=chamber:
              oracles.check_kappa(wall, chamber, rc, _json(out)))
    figs = os.path.join(workdir, "figures")
    query("figures", "figures", ["figures", "--out-dir", figs],
          lambda rc, out, err: oracles.check_figures(rc, _json(out), figs))

    rng.shuffle(queries)
    verify = partial(_ask, "verify", "verify all", ["verify", "--suite", "all"],
                     lambda rc, out, err: oracles.check_verify(rc, _json(out)))
    return {"steps": [verify] + queries}


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "FLOPWIN_MAX_DEGREE"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _reported(stderr: str) -> dict[str, float]:
    """The '<name>: <seconds>s' timing lines the CLI prints on stderr."""
    out = {}
    for line in stderr.splitlines():
        name, sep, value = line.rpartition(": ")
        if sep and value.endswith("s"):
            try:
                out[name] = float(value[:-1])
            except ValueError:
                pass
    return out


def run_round(inputs: dict, run) -> None:
    env = _env()
    for step in inputs["steps"]:
        step(run, env)


def _ask(kind, op_id, argv, check, run, env) -> None:
    result = _query(run, kind, argv, env, op_id)
    if result is None:
        return
    try:
        problem = check(*result)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    run.settle(op_id, problem)


def _feedback(op_id, name, names, expr, run, env) -> None:
    """Reduce an acon/endG expression, then feed the printed normal form back in:
    it must agree with the input in the commutative quotient and not change."""
    argv = ["ncalg", "normal-form", "--algebra", name, f"--expr={render_expr(expr, names)}"]
    first = _query(run, "ncalg-normal-form", argv, env, op_id)
    if first is None:
        return
    rc, out, _ = first
    again = _query(run, "ncalg-normal-form", argv[:-1] + [f"--expr={out.strip()}"], env,
                   op_id + " again")
    try:
        problem = f"exit {rc}" if rc else oracles.check_quotient_image(
            expr, oracles.parse_rendered(out, names))
    except (ValueError, KeyError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    run.settle(op_id, problem)
    if again is not None:
        rc2, out2, _ = again
        run.settle(op_id + " again", f"exit {rc2}" if rc2 else
                   None if out2 == out else "normal form is not idempotent")


def _query(run, kind, argv, env, op_id):
    """Run one CLI process as one timed operation; returns (rc, stdout, stderr)."""
    try:
        with run.op(kind, span="cli." + kind):
            start = time.perf_counter_ns()
            proc = subprocess.run([sys.executable, "-m", "flopwin.cli"] + argv, env=env,
                                  capture_output=True, text=True, timeout=150)
            end = time.perf_counter_ns()
            _record_children(run, kind, proc.stderr, start, end)
    except subprocess.TimeoutExpired:
        run.settle(op_id, "timed out")
        return None
    return proc.returncode, proc.stdout, proc.stderr


def _record_children(run, kind, stderr, start_ns, end_ns) -> None:
    """Per-layer figures from the CLI's own timing lines (traced rounds only).

    The CLI reports how long its handler ran; the rest of the process time is
    interpreter start, imports, argument parsing and output (cli overhead).
    Child spans are placed so that they end when the process ends.
    """
    if not run.tracing:
        return
    times = _reported(stderr)
    handler = times.get(kind.split("-")[0])  # the CLI names the top-level command
    if handler is None:
        return
    if kind == "verify":
        cursor = end_ns - int(handler * 1e9)
        for check, module in VERIFY_MODULE.items():
            if check in times:
                run.sample(f"verify.{check}.s", times[check])
                span_end = cursor + int(times[check] * 1e9)
                run.add_span(f"{module}.verify.{check}", cursor, span_end)
                cursor = span_end
    else:
        run.add_span(f"{MODULE[kind]}.{kind}", end_ns - int(handler * 1e9), end_ns)
    run.sample("cli.overhead_ms", ((end_ns - start_ns) / 1e9 - handler) * 1e3)


def report(run) -> dict:
    queries = sorted(run.latencies(kinds=list(MODULE)))
    # the highest percentile with at least ten queries beyond it
    tail = queries[len(queries) - 11] if len(queries) > 10 else queries[-1]
    return {
        "verify_all_s": (run.round_median(["verify"]), "s"),
        "query_p50_ms": (percentile(queries, 50) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
    }
