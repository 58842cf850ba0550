"""Self-tests for the benchmark's oracles: each accepts the program's real
output and rejects a deliberately corrupted copy of it.

    python3 bench/selftest.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import algebra_ladder  # noqa: E402
import cli_session  # noqa: E402
import oracles  # noqa: E402
import quiver_sweep  # noqa: E402
import run as bench_run  # noqa: E402
from harness import Run  # noqa: E402
from flopwin import cli, cohomology, ncalg, quiver  # noqa: E402
from flopwin.lattice import load_fixture  # noqa: E402
from flopwin.windows import FaceRef, kappa_generators  # noqa: E402
from flopwin.zonotope import skms  # noqa: E402


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


class HilbertOracles(unittest.TestCase):
    def test_catalog_series(self):
        for name, series in oracles.HILBERT.items():
            got = ncalg.hilbert(ncalg.catalog(name), 12)
            self.assertIsNone(oracles.check_dims(name, got, series(12)))
            bad = got[:]
            bad[7] += 1
            self.assertIsNotNone(oracles.check_dims(name, bad, series(12)))

    def test_kernels_and_ideals(self):
        d = 6
        pres = ncalg.catalog("acon")
        rs = ncalg.complete(pres, d)
        t = pres.gen("t")
        com = ncalg.commutator(pres.gen("beta"), pres.gen("gamma"))
        cases = [
            (ncalg.graded_kernel(rs, t, "right", d).dims, oracles.kernel_t_dims(d)),
            (ncalg.graded_kernel(rs, com, "right", d).dims, oracles.kernel_c_dims(d)),
            (ncalg.ideal_dims(rs, [com], d), oracles.commutator_ideal_dims(d)),
            (ncalg.ideal_dims(rs, [t], d), oracles.ideal_t_dims(d)),
        ]
        for got, want in cases:
            self.assertIsNone(oracles.check_dims("dims", got, want))
            self.assertIsNotNone(oracles.check_dims("dims", got[:-1] + [got[-1] + 1], want))

    def test_quotient_dims(self):
        rng = random.Random(3)
        rel = algebra_ladder.random_cubic(rng, 2)
        base = ncalg.catalog("endG")
        qpres = ncalg.NCPresentation.build(
            list(zip(base.generators, base.degrees)),
            relations=[ncalg.poly_from_key(k) for k in base.relations] + [rel])
        qdims = ncalg.complete(qpres, 7).graded_dims(7)
        ideal = ncalg.ideal_dims(ncalg.complete(base, 7), [rel], 7)
        want = [oracles.endg_dims(7)[k] - ideal[k] for k in range(8)]
        self.assertIsNone(oracles.check_dims("quotient", qdims, want))
        self.assertIsNotNone(oracles.check_dims("quotient", qdims[:3] + [qdims[3] + 1] + qdims[4:],
                                                want))


class NormalFormOracles(unittest.TestCase):
    def test_commutative_collection(self):
        rng = random.Random(5)
        pres = ncalg.catalog("Ctbc")
        rs = ncalg.complete(pres, 6)
        expr = algebra_ladder.random_expression(rng, 3)
        nf = ncalg.normal_form(rs, expr)
        self.assertIsNone(oracles.check_commutative_normal_form(expr, nf, pres.generators))
        bad = dict(nf)
        word = next(iter(bad))
        bad[word] += 1
        self.assertIsNotNone(oracles.check_commutative_normal_form(expr, bad, pres.generators))
        text = pres.render(nf)
        self.assertIsNone(oracles.check_commutative_normal_form(expr, text, pres.generators))
        self.assertEqual(oracles.parse_rendered(text, pres.generators), nf)
        self.assertIsNotNone(oracles.check_commutative_normal_form(
            expr, text.replace("+", "-", 1) if "+" in text else "-" + text, pres.generators))

    def test_quotient_image(self):
        rng = random.Random(7)
        pres = ncalg.catalog("acon")
        rs = ncalg.complete(pres, 6)
        expr = algebra_ladder.random_expression(rng, 3)
        nf = ncalg.normal_form(rs, expr)
        self.assertIsNone(oracles.check_quotient_image(expr, nf))
        self.assertEqual(oracles.parse_rendered(pres.render(nf), pres.generators), nf)
        bad = oracles.poly_add(nf, {(1, 2): Fraction(1)})
        self.assertIsNotNone(oracles.check_quotient_image(expr, bad))

    def test_relation_multiple_reduces(self):
        rng = random.Random(9)
        pres = ncalg.catalog("acon")
        rs = ncalg.complete(pres, 8)
        expr = algebra_ladder.relation_multiple(rng, pres.all_relations(), 3)
        self.assertEqual(ncalg.normal_form(rs, expr), {})
        rendered = cli_session.render_expr(expr, pres.generators)
        self.assertEqual(ncalg.parse_expr(pres, rendered), expr)


class CohomologyOracles(unittest.TestCase):
    def test_brute_multiplicity(self):
        names = ["V", "S2Vm1"]
        for label in ((0, 0), (1, -1), (2, 0)):
            got = cohomology.multiplicity(label, cohomology.sym_graded(names, 6))
            want = oracles.brute_multiplicity(label, names, 6)
            self.assertIsNone(oracles.check_dims("mult", got, want))
            self.assertIsNotNone(oracles.check_dims("mult", [got[0] + 1] + got[1:], want))

    def test_sym_totals(self):
        names = ["V", "S2Vm1", "S2Vm1"]
        graded = cohomology.sym_graded(names, 8)
        totals = [sum(graded[k].values()) for k in range(9)]
        want = oracles.sym_total_dims(len(oracles.weights(names)), 8)
        self.assertIsNone(oracles.check_dims("totals", totals, want))
        self.assertIsNotNone(oracles.check_dims("totals", totals[:-1] + [0], want))


class PolyhedralOracles(unittest.TestCase):
    def test_window_tables_are_periodic(self):
        for kind, table in oracles.PAPER_WINDOWS.items():
            for j, text in table.items():
                self.assertEqual(oracles.window_oracle(kind, j), text)
                self.assertEqual(oracles.render_window(oracles.parse_window(text)), text)

    def test_window_check(self):
        rc, out = run_cli(["windows", "--face", "C:3"])
        self.assertIsNone(oracles.check_window("C", 3, rc, out))
        self.assertIsNotNone(oracles.check_window("C", 3, rc, out.replace("V", "V(1)")))
        self.assertIsNotNone(oracles.check_window("C", 3, 2, ""))
        rc, out = run_cli(["windows", "--face", "D:-3"])
        self.assertIsNone(oracles.check_window("D", -3, rc, out))
        self.assertEqual(oracles.window_oracle("C", -12), "⟨O(-6), V(-6)⟩")

    def test_known_faults(self):
        self.assertIsNotNone(oracles.known_fault("windows C:10"))
        self.assertIsNone(oracles.known_fault("windows C:9"))
        self.assertIsNotNone(oracles.known_fault("windows D:9"))
        self.assertIsNotNone(oracles.known_fault("windows C:-9"))
        self.assertIsNone(oracles.known_fault("windows D:-8"))
        self.assertIsNone(oracles.known_fault("hilbert acon"))

    def test_skms(self):
        for fixture in oracles.SKMS:
            payload = skms(load_fixture(fixture)).to_jsonable()
            self.assertIsNone(oracles.check_skms(fixture, 0, payload))
            bad = copy.deepcopy(payload)
            bad["vertices"][0] = ["2"] * len(bad["vertices"][0])
            self.assertIsNotNone(oracles.check_skms(fixture, 0, bad))
            bad = dict(payload, punctures=["0", "1/3"])
            self.assertIsNotNone(oracles.check_skms(fixture, 0, bad))

    def test_kappa(self):
        p = load_fixture("universal_flop_length2.json")
        for wall, chamber in oracles.PAPER_KAPPA:
            gens = kappa_generators(p, FaceRef.parse(wall), FaceRef.parse(chamber))
            payload = [{"chi_class": list(g.chi_class), "cocharacter": list(g.cocharacter),
                        "object": g.object_name} for g in gens]
            self.assertIsNone(oracles.check_kappa(wall, chamber, 0, payload))
            self.assertIsNotNone(oracles.check_kappa(wall, chamber, 0, payload[1:]))

    def test_figures(self):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_cli(["figures", "--out-dir", tmp])
            payload = json.loads(out)
            self.assertIsNone(oracles.check_figures(rc, payload, tmp))
            with open(payload["files"][0], "w", encoding="utf-8") as handle:
                handle.write("<svg")
            self.assertIsNotNone(oracles.check_figures(rc, payload, tmp))

    def test_verify_and_input_errors(self):
        payload = {"suite": "all", "overall": True,
                   "checks": [{"name": n, "pass": True} for n in oracles.VERIFY_CHECKS]}
        self.assertIsNone(oracles.check_verify(0, payload))
        bad = copy.deepcopy(payload)
        bad["checks"][3]["pass"] = False
        self.assertIsNotNone(oracles.check_verify(0, bad))
        self.assertIsNone(oracles.check_input_error(2, "", "error: bad rational\n"))
        self.assertIsNotNone(oracles.check_input_error(1, "", "Traceback (most recent call last)"))


class QuiverOracles(unittest.TestCase):
    def test_chart(self):
        rng = random.Random(11)
        for _ in range(200):
            sample = quiver_sweep._chart_draw(rng)
            rep = quiver.from_chart(*sample)
            point = quiver.base_map(rep)
            args = [sample, rep, point, quiver.base_equation(point), quiver.stratum(rep),
                    quiver.is_semistable(rep, "theta1"), quiver.is_semistable(rep, "theta2"),
                    quiver.singular_locus_check(point)]
            self.assertIsNone(oracles.check_chart(*args))
            moved = quiver.BasePoint.from_values(
                [point.x + 1] + list(point.to_tuple()[1:]))
            for i, bad in ((2, moved), (3, Fraction(1)), (4, "S0" if args[4] != "S0" else "S1"),
                           (5, not args[5]), (6, not args[6]),
                           (7, quiver.singular_locus_check(moved))):
                corrupted = args[:]
                corrupted[i] = bad
                self.assertIsNotNone(oracles.check_chart(*corrupted), f"argument {i}")

    def test_scalar_pair(self):
        rng = random.Random(13)
        rep = quiver.scalar_pair_rep(rng)
        self.assertIsNone(oracles.check_scalar_pair(rep, quiver.is_semistable(rep, "theta1")))
        self.assertIsNotNone(oracles.check_scalar_pair(rep, True))

    def test_relations(self):
        rng = random.Random(17)
        for perturb in (False, True) * 20:
            data = quiver_sweep.rep_file(rng, perturb)
            rep = quiver.QuiverRep.from_dict(json.loads(json.dumps(data)))
            ok, residuals = quiver.relations_hold(rep)
            self.assertEqual(ok, not perturb)
            self.assertIsNone(oracles.check_relations(data, ok, residuals))
            self.assertIsNotNone(oracles.check_relations(data, not ok, residuals))
            if perturb:
                bad = dict(residuals, alpha_star_alpha=residuals["alpha_star_alpha"] + 1)
                self.assertIsNotNone(oracles.check_relations(data, ok, bad))

    def test_quiver_cli(self):
        rng = random.Random(19)
        with tempfile.TemporaryDirectory() as tmp:
            for perturb in (False, True, False, True):
                data = quiver_sweep.rep_file(rng, perturb)
                path = os.path.join(tmp, "rep.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(data, handle)
                rc, out = run_cli(["quiver", "check", "--rep", path, "--stability", "theta2"])
                self.assertIsNone(oracles.check_quiver_cli(data, "theta2", rc, out))
                payload = json.loads(out)
                if perturb:
                    key = "beta_square"
                    payload["residuals"][key][0][0] = 99
                else:
                    payload["stratum"] = "S0" if payload["stratum"] != "S0" else "S1"
                self.assertIsNotNone(
                    oracles.check_quiver_cli(data, "theta2", rc, json.dumps(payload)))


class MetricNames(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        """A run reports exactly the metrics, with the units, BENCHMARK.json lists."""
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        run = Run("names")
        for traced in (False, True):
            run.begin_round(traced)
            with run.op("noop"):
                pass
            run.end_round()
        listed = lambda key: {m["name"]: m["unit"] for m in spec[key]}
        got = {k: u for k, (_, u) in bench_run.end_to_end(run, 0.1, 20.0).items()}
        self.assertEqual(got, listed("end_to_end"))
        layers = bench_run.per_layer(run)
        layers.update(bench_run.tracing_overhead(run))
        self.assertEqual({k: u for k, (_, u) in layers.items()}, listed("per_layer"))


if __name__ == "__main__":
    unittest.main()
