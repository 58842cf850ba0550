import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import flopwin
import flopwin.ncalg as ncalg
from flopwin.cli import main
from flopwin.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def _child_env():
    """The environment of a child interpreter that imports this test run's flopwin."""
    package_root = str(Path(flopwin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


SEMISTABLE_REP = {
    "alpha": [1, 0],
    "alpha_star": [2, 1],
    "beta": [["1/2", 1], [0, "-1/2"]],
    "gamma": [[0, 0], [1, 0]],
}


def test_windows_text_render(capsys):
    code, out, err = run_cli(capsys, "windows", "--face", "C:0",
                             "--input", "universal_flop_length2.json")
    assert code == 0
    assert out == "⟨O, V⟩\n"
    assert "windows:" in err


def test_windows_wall_routes_to_big_window(capsys):
    code, out, _ = run_cli(capsys, "windows", "--face", "D:-1")
    assert code == 0
    assert out == "⟨O, V, V(-1), Sym^2V(-1)⟩\n"


def test_windows_json_payload(capsys):
    code, payload, _ = run_json(capsys, "windows", "--face", "C:1", "--json")
    assert code == 0
    assert payload["face"] == "C:1"
    assert payload["names"] == ["O(1)", "V"]
    assert payload["classes"] == [[1, 1], [1, 0]]


def test_windows_bad_face_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "windows", "--face", "E:0")
    assert code == 2
    assert out == ""
    assert "face reference" in err


def test_skms_payload(capsys):
    code, payload, _ = run_json(capsys, "skms", "--input", "universal_flop_length2.json")
    assert code == 0
    assert payload["N"] == 2
    assert payload["punctures"] == ["0", "1/2"]
    assert len(payload["halfspaces"]) == 6
    assert all(h["bound"] == "1" for h in payload["halfspaces"])
    assert ["1", "-1"] in payload["vertices"]


def test_skms_conifold(capsys):
    code, payload, _ = run_json(capsys, "skms", "--input", "conifold.json")
    assert code == 0
    assert payload["N"] == 1
    assert payload["punctures"] == ["0"]


def test_skms_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "skms")
    _, second, _ = run_cli(capsys, "skms")
    assert first == second


def test_skms_cost_does_not_grow_with_multiplicity(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"rank": 1, "weights": [
        {"vec": [1], "mult": 10**6}, {"vec": [-1], "mult": 10**6},
    ]}), encoding="utf-8")
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "skms", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["vertices"] == [["-500000"], ["500000"]]
    assert payload["punctures"] == ["0"]


def test_warnings_reach_stderr_as_one_plain_line(tmp_path, capsys):
    # a non-quasi-symmetric presentation makes zonotope.nabla warn; neither the
    # warning's source line nor, under an "error" filter, a traceback escapes
    src = tmp_path / "nqs.json"
    src.write_text(json.dumps({"rank": 1, "weights": [{"vec": [1], "mult": 2}, {"vec": [-1]}]}),
                   encoding="utf-8")
    runs = []
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            runs.append(run_cli(capsys, "skms", "--input", str(src)))
    assert runs[0][:2] == runs[1][:2] and runs[0][0] == 0
    for _, _, err in runs:
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: presentation is not quasi-symmetric; polytope may degenerate"]
        assert err.splitlines()[-1].startswith("skms: ")
        assert ".py:" not in err and "Traceback" not in err


def test_kappa_payload(capsys):
    code, payload, _ = run_json(capsys, "kappa", "--wall", "D:-1", "--chamber", "C:0")
    assert code == 0
    names = {entry["object"] for entry in payload}
    assert names == {"O_S0(V)", "sigma_* O(Q)", "sigma_* O(Q^2 D^-1)"}
    assert all(entry["cocharacter"] != [0, 1] for entry in payload)


def test_kappa_wall_chamber_at_the_vertex(capsys):
    code, payload, _ = run_json(capsys, "kappa", "--wall", "D:-2", "--chamber", "C:-2")
    assert code == 0
    assert len(payload) == 1
    assert payload[0]["object"] == "O_S0"
    assert payload[0]["chi_class"] == [0, 0]


def test_missing_input_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "skms", "--input", "no_such_fixture.json")
    assert code == 2
    assert "no such file or bundled fixture" in err
    # a path that exists but cannot be read as a file
    code, out, err = run_cli(capsys, "skms", "--input", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"rank": 2,,}', encoding="utf-8")
    code, out, err = run_cli(capsys, "skms", "--input", str(bad))
    assert code == 2
    assert "line 1" in err and "column 12" in err
    bad.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, "skms", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "broken.json" in err and "nested too deeply" in err


def test_presentation_values_must_be_json_integers(tmp_path, capsys):
    path = tmp_path / "pres.json"
    conifold = {"rank": 1, "weights": [{"vec": [1], "mult": 2}, {"vec": [-1], "mult": 2}]}
    path.write_text(json.dumps(conifold), encoding="utf-8")
    assert run_cli(capsys, "skms", "--input", str(path))[0] == 0
    weights = conifold["weights"]
    for bad in (
        dict(conifold, weights=[{"vec": [-1.9], "mult": 2}, weights[0]]),
        dict(conifold, weights=[{"vec": [-1], "mult": 2.0}, weights[0]]),
        dict(conifold, rank=True),
        dict(conifold, rank="1"),
        dict(conifold, weights=[{"vec": "1", "mult": 2}, {"vec": [-1], "mult": 2}]),
        dict(conifold, weights=[{"vec": [1], "mult": True}, {"vec": [-1], "mult": True}]),
        dict(conifold, roots=["1"]),
        dict(conifold, weyl=[["1"]]),
    ):
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run_cli(capsys, "skms", "--input", str(path))
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: malformed presentation: expected an integer"), err


def test_quiver_check_semistable_rep(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(SEMISTABLE_REP), encoding="utf-8")
    code, payload, _ = run_json(capsys, "quiver", "check", "--rep", str(path),
                                "--stability", "theta1")
    assert code == 0
    assert payload["relations_hold"] is True
    assert payload["semistable"] is True
    assert payload["stratum"] == "semistable"
    assert payload["base_equation"] == 0
    assert payload["base_point"]["t"] == 2
    assert payload["base_point"]["u"] == "-1/4"


def test_quiver_check_relation_failure_exits_1(tmp_path, capsys):
    rep = {
        "alpha": [1, 0],
        "alpha_star": [2, 1],
        "beta": [[1, 1], [0, 1]],
        "gamma": [[0, 0], [1, 0]],
        "delta": [[0, 0], [0, 0]],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    code, payload, _ = run_json(capsys, "quiver", "check", "--rep", str(path))
    assert code == 1
    assert payload["relations_hold"] is False
    assert payload["residuals"]["beta_square"] == [[0, 2], [0, 0]]
    assert "base_point" not in payload


def test_quiver_check_rejects_incomplete_rep(tmp_path, capsys):
    zero_denominator = {
        "alpha": [1, 0],
        "alpha_star": [2, 1],
        "beta": [["1/0", 1], [0, "-1/2"]],
        "gamma": [[0, 0], [1, 0]],
    }
    complete = {key: zero_denominator[key] for key in ("alpha", "alpha_star", "gamma")}
    complete["beta"] = [[1, 1], [0, "-1/2"]]
    deep_alpha = json.dumps(dict(complete, alpha="deep"))
    deep_alpha = deep_alpha.replace('"deep"', "[" * 3000 + "1" + "]" * 3000)
    texts = [json.dumps(rep) for rep in (
        {"alpha": [1, 0]}, zero_denominator,
        dict(complete, params=[1]), dict(complete, params="xy"),
        dict(complete, delat=[[0, 0], [0, 0]]), [complete],
        dict(complete, params={"t": "1e99999999"}),
        dict(complete, params={"t": "-1e4300"}),
        # a digit string is not a vector, nor a matrix row
        dict(complete, alpha="12"), dict(complete, beta=["01", "00"]),
        dict(complete, gamma="0010"), dict(complete, delta=["00", [0, 0]]),
    )] + ["[" * 100000, deep_alpha]
    path = tmp_path / "rep.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "quiver", "check", "--rep", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rep.json" in err


def test_ncalg_hilbert_payload(capsys):
    code, payload, _ = run_json(capsys, "ncalg", "hilbert", "--algebra", "acon",
                                "--max-degree", "12")
    assert code == 0
    assert payload["dims"] == [1, 3, 7, 12, 19, 27, 37, 48, 61, 75, 91, 108, 127]


def test_ncalg_hilbert_below_the_relation_degree(capsys):
    code, payload, _ = run_json(capsys, "ncalg", "hilbert", "--algebra", "acon",
                                "--max-degree", "2")
    assert code == 0
    assert payload["dims"] == [1, 3, 7]


def test_ncalg_hilbert_unknown_algebra(capsys):
    code, out, err = run_cli(capsys, "ncalg", "hilbert", "--algebra", "nope")
    assert code == 2
    assert "unknown algebra" in err


def test_ncalg_normal_form_of_central_relation(capsys):
    code, out, _ = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon",
                           "--expr", "t*(beta*gamma - gamma*beta)")
    assert code == 0
    assert out == "0\n"


def test_ncalg_normal_form_nontrivial(capsys):
    # in the last two, inhomogeneous factors put two products on one word:
    # 1*t and t*1 add up in the first and cancel in the second
    for expr, want in (("gamma*beta*beta - 1/2*t", "beta*beta*gamma - 1/2*t\n"),
                       ("(1+t)*(1+t)", "t*t + 2*t + 1\n"), ("(1+t)*(1-t)", "-t*t + 1\n")):
        code, out, _ = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon", "--expr", expr)
        assert code == 0
        assert out == want


def test_ncalg_normal_form_parse_error(capsys):
    # the deep nesting comes last: a line tracer that its RecursionError
    # reaches is dropped, and would miss the cases after it
    for expr, message in (("beta $ gamma", "unexpected character"),
                          ("1/0*t", "zero denominator"),
                          # one letter past the degree cap
                          ("*".join(["beta"] * 101), "degree 101, above the cap of 100"),
                          ("(" * 2000 + "t" + ")" * 2000, "nested too deeply")):
        code, out, err = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon",
                                 "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def _seeded_expr(rng, names):
    """A sum of one to three terms, each a rational times one to six letters."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(names) for _ in range(rng.randint(1, 6))]
        terms.append("*".join([rng.choice(["1", "-1", "2", "1/2", "-7/3"]), *factors]))
    return " + ".join(terms)


def test_ncalg_normal_form_completes_to_the_expression_degree(capsys, monkeypatch):
    # Completion is homogeneous: a rule of degree <= k comes only from
    # overlaps of degree <= k, so completing past the expression's degree
    # adds no rule its normal form can use.  The printed normal form is the
    # one a cutoff of max(12, degree) gives, for every catalog algebra.
    cutoffs = []
    completed = ncalg.completed
    monkeypatch.setattr(ncalg, "completed", lambda p, d: cutoffs.append(d) or completed(p, d))
    rng = random.Random(5)
    for name in ncalg.catalog_names():
        pres = ncalg.catalog(name)
        rewritten = 0
        for _ in range(12):
            text = _seeded_expr(rng, pres.generators)
            expr = ncalg.parse_expr(pres, text)
            degree = max((pres.word_degree(w) for w in expr), default=0)
            code, out, _ = run_cli(capsys, "ncalg", "normal-form", "--algebra", name,
                                   f"--expr={text}")
            assert code == 0 and cutoffs.pop() == degree, (name, text)
            wide = completed(pres, max(12, degree)).normal_form(expr)
            assert out == pres.render(wide) + "\n", (name, text)
            rewritten += wide != expr
        # the comparison is not vacuous: rules rewrite some of the inputs
        assert rewritten, name


def test_ncalg_normal_form_takes_no_degree_flag(capsys):
    code, out, err = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon",
                             "--expr", "t", "--max-degree", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --max-degree 5" in err


def test_coh_multiplicity_dual_vanishing(capsys):
    code, payload, _ = run_json(capsys, "coh", "multiplicity", "--irrep", "Vstar",
                                "--sym", "V,S2Vm1,S2Vm1", "--max-degree", "15")
    assert code == 0
    assert payload["irrep"] == [0, -1]
    assert payload["multiplicities"] == [0] * 16


def test_coh_multiplicity_numeric_label(capsys):
    code, payload, _ = run_json(capsys, "coh", "multiplicity", "--irrep", "1,-1",
                                "--sym", "S2Vm1", "--max-degree", "4")
    assert code == 0
    assert payload["multiplicities"] == [0, 1, 0, 1, 0]


def test_coh_multiplicity_rejects_bad_labels(capsys):
    assert run_cli(capsys, "coh", "multiplicity", "--irrep", "0,5", "--sym", "V")[0] == 2
    assert run_cli(capsys, "coh", "multiplicity", "--irrep", "W", "--sym", "V")[0] == 2
    assert run_cli(capsys, "coh", "multiplicity", "--irrep", "V", "--sym", " , ")[0] == 2
    code, out, err = run_cli(capsys, "coh", "multiplicity", "--irrep", "1,2,3", "--sym", "V")
    assert code == 2 and out == ""
    assert err == "error: irrep label must be 'p,q' or a representation name\n"


def test_max_degree_cap_is_accepted(capsys):
    code, payload, _ = run_json(capsys, "coh", "multiplicity", "--irrep", "V", "--sym", "V",
                                "--max-degree", "100")
    assert code == 0
    assert payload["multiplicities"][:3] == [0, 1, 0]
    assert len(payload["multiplicities"]) == 101


@pytest.mark.parametrize("raw", ["101", "-1", "7.5", "x"])  # 101 is one past the cap
def test_max_degree_flag_out_of_range(capsys, raw):
    code, out, err = run_cli(capsys, "coh", "multiplicity", "--irrep", "V", "--sym", "V",
                             "--max-degree", raw)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-degree") and err.count("\n") == 1


def test_verify_polyhedral_suite(capsys):
    code, payload, err = run_json(capsys, "verify", "--suite", "polyhedral")
    assert code == 0
    assert payload["overall"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "zonotope-hrep",
        "skms-residues",
        "window-tables",
        "kappa-generators",
    ]
    assert all(c["pass"] for c in payload["checks"])
    # timing stays out of the JSON body and on stderr
    assert "elapsed" not in payload
    assert "zonotope-hrep:" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "everything")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "everything" in err
    assert all(name in err for name in SUITES)


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_figures_flop_fixture(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, payload, _ = run_json(capsys, "figures", "--out-dir", str(out_dir))
    assert code == 0
    assert [p.rsplit("/", 1)[-1] for p in payload["files"]] == [
        "polytope.svg",
        "arrangement.svg",
        "facets.svg",
    ]
    for path in payload["files"]:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
    polytope = (out_dir / "polytope.svg").read_text(encoding="utf-8")
    assert "polygon" in polytope


def test_figures_conifold_interval(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, payload, _ = run_json(capsys, "figures", "--out-dir", str(out_dir),
                                "--input", "conifold.json")
    assert code == 0
    for path in payload["files"]:
        ET.parse(path)
    polytope = (out_dir / "polytope.svg").read_text(encoding="utf-8")
    assert "<line" in polytope and "polygon" not in polytope


def test_figures_empty_presentation_placeholder(tmp_path, capsys):
    presentation = {"rank": 2, "roots": [], "weights": [], "weyl": []}
    src = tmp_path / "empty.json"
    src.write_text(json.dumps(presentation), encoding="utf-8")
    out_dir = tmp_path / "figs"
    code, payload, _ = run_json(capsys, "figures", "--out-dir", str(out_dir),
                                "--input", str(src))
    assert code == 0
    for path in payload["files"]:
        ET.parse(path)
        assert "empty presentation" in Path(path).read_text(encoding="utf-8")


def test_figures_unbounded_polytope_placeholder(tmp_path, capsys):
    # weights on one line leave the rank-2 polytope unbounded across it
    presentation = {"rank": 2, "weights": [{"vec": [1, 0]}, {"vec": [-1, 0]}]}
    src = tmp_path / "line.json"
    src.write_text(json.dumps(presentation), encoding="utf-8")
    code, payload, _ = run_json(capsys, "figures", "--out-dir", str(tmp_path / "figs"),
                                "--input", str(src))
    assert code == 0
    for path in payload["files"]:
        text = Path(path).read_text(encoding="utf-8")
        ET.parse(path)
        assert "<text " in text and "<polygon" not in text and "<line" not in text


def test_figures_draw_each_weight_once(tmp_path, capsys):
    # the figure grows with the number of weights, not with their multiplicity
    presentation = {"rank": 1, "roots": [], "weyl": [],
                    "weights": [{"vec": [1], "mult": 20000}, {"vec": [-1], "mult": 20000}]}
    src = tmp_path / "heavy.json"
    src.write_text(json.dumps(presentation), encoding="utf-8")
    out_dir = tmp_path / "figs"
    code, _, _ = run_json(capsys, "figures", "--out-dir", str(out_dir), "--input", str(src))
    assert code == 0
    polytope = (out_dir / "polytope.svg").read_text(encoding="utf-8")
    dots = re.findall(r'<circle cx="([^"]+)" cy="[^"]+" r="[^"]+" fill="#c0392b"/>', polytope)
    assert sorted(map(float, dots)) == [140.0, 300.0]


def test_figures_unwritable_directory(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    code, out, err = run_cli(capsys, "figures", "--out-dir", str(blocker / "sub"))
    assert code == 2


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "flopwin.cli", "windows", "--face", "C:0"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "⟨O, V⟩\n"
    assert proc.stdout.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["quiver-check", "ncalg-hilbert"])
def test_closed_stdout_exits_2_without_traceback(tmp_path, command, unbuffered):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(SEMISTABLE_REP), encoding="utf-8")
    argv = {
        "quiver-check": ["quiver", "check", "--rep", str(rep)],
        "ncalg-hilbert": ["ncalg", "hilbert", "--algebra", "acon"],
    }[command]
    # stdout is a pipe whose read end is already closed, as in `flopwin ... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flopwin.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 2
    assert proc.stderr.count("error:") == 1


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full to write to")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_full_stdout_exits_2_without_traceback(unbuffered):
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "flopwin.cli", "windows", "--face", "C:0"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: the output could not be written: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_full_stderr_exits_2(unbuffered):
    # nothing can be reported, but the payload was written before the
    # timing line failed, and no traceback is attempted
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "flopwin.cli", "ncalg", "hilbert", "--algebra", "acon",
             "--max-degree", "3"],
            stdout=subprocess.PIPE,
            stderr=full,
            text=True,
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["dims"] == [1, 3, 7, 12]


def test_entry_runs_atexit_handlers_before_it_flushes():
    # a handler registered before the entry (as a subprocess coverage run
    # registers its data save) still runs, and what it prints is flushed
    probe = ("import atexit, sys\n"
             "atexit.register(print, 'atexit ran')\n"
             "from flopwin.cli import run\n"
             "run()\n")
    proc = subprocess.run([sys.executable, "-c", probe, "windows", "--face", "C:0"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "⟨O, V⟩\natexit ran\n"


def test_entry_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({**SEMISTABLE_REP, "beta": [[1, 1], [0, 1]]}), encoding="utf-8")
    for argv, want in ((["windows", "--face", "C:0"], 0),
                       (["quiver", "check", "--rep", str(rep)], 1),
                       (["windows", "--face", "X:0"], 2),
                       (["windows"], 2)):
        proc = subprocess.run([sys.executable, "-m", "flopwin.cli", *argv],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


# One valid run of every subcommand, with the flopwin modules it loads: each
# subcommand imports only the layers it runs, and only verify loads them all.
# "{tmp}" stands for a scratch directory holding rep.json.
PRESENTATION = {"cli", "exact", "fixtures", "lattice", "zonotope"}
SUBCOMMANDS = {
    "skms": (["skms"], PRESENTATION),
    "windows": (["windows", "--face", "C:0"], PRESENTATION | {"windows"}),
    "kappa": (["kappa", "--wall", "D:-1", "--chamber", "C:0"], PRESENTATION | {"windows"}),
    "figures": (["figures", "--out-dir", "{tmp}/figs"], PRESENTATION | {"figures"}),
    "quiver-check": (["quiver", "check", "--rep", "{tmp}/rep.json"], {"cli", "exact", "quiver"}),
    "ncalg-hilbert": (["ncalg", "hilbert", "--algebra", "acon"], {"cli", "exact", "ncalg"}),
    "ncalg-normal-form": (["ncalg", "normal-form", "--algebra", "acon", "--expr", "t*beta"],
                          {"cli", "exact", "ncalg"}),
    "coh-multiplicity": (["coh", "multiplicity", "--irrep", "Vstar", "--sym", "V,S2Vm1"],
                         {"cli", "cohomology", "exact"}),
    "verify": (["verify", "--suite", "polyhedral"],
               PRESENTATION | {"cohomology", "ncalg", "quiver", "verify", "windows"}),
}


def _subcommand_argv(name, tmp_path):
    (tmp_path / "rep.json").write_text(json.dumps(SEMISTABLE_REP), encoding="utf-8")
    argv, _ = SUBCOMMANDS[name]
    return [arg.replace("{tmp}", str(tmp_path)) for arg in argv]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_its_layers(tmp_path, name):
    # a fresh interpreter, so that only this one run of main has imported anything
    probe = (
        "import contextlib, io, json, sys\n"
        "from flopwin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m.split('.')[1] for m in sys.modules\n"
        "                                if m.startswith('flopwin.'))]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *_subcommand_argv(name, tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    code, loaded = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert set(loaded) == SUBCOMMANDS[name][1]


def test_imports_leave_out_dataclasses():
    # dataclasses pulls in inspect, ast and dis: a cost every query would pay
    probe = "import sys, flopwin.cli, flopwin.quiver, flopwin.verify; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_timing_lines(tmp_path, capsys, name):
    # the '<name>: <seconds>s' lines on stderr are read by the benchmark
    argv = _subcommand_argv(name, tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    timed = [line.rpartition(": ") for line in err.splitlines()]
    assert all(sep and re.fullmatch(r"\d+\.\d{3}s", value) for _, sep, value in timed), err
    names = [label for label, _, _ in timed]
    if name == "verify":
        assert names == list(SUITES["polyhedral"]) + ["verify"]
    else:
        assert names == [argv[0]]
