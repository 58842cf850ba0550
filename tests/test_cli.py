import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import flopwin
from flopwin.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


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


def test_missing_input_file(capsys):
    code, out, err = run_cli(capsys, "skms", "--input", "no_such_fixture.json")
    assert code == 2
    assert "no such file or bundled fixture" in err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"rank": 2,,}', encoding="utf-8")
    code, out, err = run_cli(capsys, "skms", "--input", str(bad))
    assert code == 2
    assert "line 1" in err and "column 12" in err


def test_quiver_check_semistable_rep(tmp_path, capsys):
    rep = {
        "alpha": [1, 0],
        "alpha_star": [2, 1],
        "beta": [["1/2", 1], [0, "-1/2"]],
        "gamma": [[0, 0], [1, 0]],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
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
    path = tmp_path / "rep.json"
    for rep in ({"alpha": [1, 0]}, zero_denominator):
        path.write_text(json.dumps(rep), encoding="utf-8")
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
    code, out, _ = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon",
                           "--expr", "gamma*beta*beta - 1/2*t")
    assert code == 0
    assert out == "beta*beta*gamma - 1/2*t\n"


def test_ncalg_normal_form_parse_error(capsys):
    for expr, message in (("beta $ gamma", "unexpected character"),
                          ("1/0*t", "zero denominator")):
        code, out, err = run_cli(capsys, "ncalg", "normal-form", "--algebra", "acon",
                                 "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


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


def test_max_degree_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLOPWIN_MAX_DEGREE", "6")
    code, payload, _ = run_json(capsys, "ncalg", "hilbert", "--algebra", "Cbc")
    assert code == 0
    assert payload["max_degree"] == 6
    assert payload["dims"] == [1, 2, 3, 4, 5, 6, 7]


def test_max_degree_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("FLOPWIN_MAX_DEGREE", "6")
    code, payload, _ = run_json(capsys, "ncalg", "hilbert", "--algebra", "Cbc",
                                "--max-degree", "3")
    assert code == 0
    assert payload["max_degree"] == 3


def test_max_degree_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("FLOPWIN_MAX_DEGREE", "oops")
    code, out, err = run_cli(capsys, "ncalg", "hilbert", "--algebra", "Cbc")
    assert code == 2
    assert "FLOPWIN_MAX_DEGREE" in err


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
        assert "empty presentation" in open(path, encoding="utf-8").read()


def test_figures_unwritable_directory(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    code, out, err = run_cli(capsys, "figures", "--out-dir", str(blocker / "sub"))
    assert code == 2


def test_module_invocation_round_trip():
    # the child interpreter imports the same flopwin as this test run
    package_root = str(Path(flopwin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flopwin.cli", "windows", "--face", "C:0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "⟨O, V⟩\n"
    assert proc.stdout.count("\n") == 1
