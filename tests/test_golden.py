"""Golden stdout for the README examples and the fixed CLI queries.

Every case runs `flopwin.cli.main` in-process and compares the exit code and
the exact stdout bytes with `golden.json`.  To record a new expected table
(only when an output change is intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from flopwin.cli import main
from flopwin.ncalg import catalog_names

GOLDEN = Path(__file__).with_name("golden.json")
FIXTURES = ("universal_flop_length2.json", "conifold.json")

# the representation file shown in the README
README_REP = {
    "alpha": [1, 0],
    "alpha_star": [2, 1],
    "beta": [["1/2", 1], [0, "-1/2"]],
    "gamma": [[0, 0], [1, 0]],
}

# every representation file a case can name; each one is written into the
# case's working directory
REP_FILES = {
    "rep.json": README_REP,
    # beta squares to a non-scalar, so the relations fail and the residuals print
    "broken.json": {
        "alpha": [1, 2],
        "alpha_star": [0, "1/3"],
        "beta": [[0, 1], [1, 1]],
        "gamma": [[0, 0], [0, 0]],
        "params": {"Tdelta": "5/2"},
    },
    # alpha = 0: the stratum S0
    "s0.json": {
        "alpha": [0, 0],
        "alpha_star": [1, 2],
        "beta": [[0, 1], [1, 0]],
        "gamma": [[3, -1], [2, -3]],
    },
    # upper-triangular loops fix the line of alpha: the stratum S1
    "s1.json": {
        "alpha": [1, 0],
        "alpha_star": [3, 4],
        "beta": [[2, 5], [0, -2]],
        "gamma": [[-1, 7], [0, 1]],
    },
    # a trace-free chart with denominators 3, 5 and 7
    "rational.json": {
        "alpha": ["1/3", 2],
        "alpha_star": [-1, "2/5"],
        "beta": [["2/7", "1/3"], ["-3/5", "-2/7"]],
        "gamma": [["1/5", 3], ["5/7", "-1/5"]],
    },
}


def _cases() -> list[tuple[str, ...]]:
    cases: list[tuple[str, ...]] = [
        # README examples; `skms` comes with the fixtures below and
        # `verify --suite all` is left to the acceptance tests
        ("windows", "--face", "C:0"),
        ("windows", "--face", "D:-1", "--json"),
        ("kappa", "--wall", "D:-1", "--chamber", "C:0"),
        ("ncalg", "hilbert", "--algebra", "acon", "--max-degree", "12"),
        ("ncalg", "normal-form", "--algebra", "acon", "--expr", "t*(beta*gamma - gamma*beta)"),
        ("coh", "multiplicity", "--irrep", "1,-1", "--sym", "V,S2Vm1,S2Vm1",
         "--max-degree", "15"),
        ("quiver", "check", "--rep", "rep.json", "--stability", "theta1"),
        # quiver check on each stratum, on failing relations and on a
        # chart whose entries need a common denominator
        ("quiver", "check", "--rep", "rep.json", "--stability", "theta2"),
        ("quiver", "check", "--rep", "broken.json", "--stability", "theta1"),
        ("quiver", "check", "--rep", "s0.json", "--stability", "theta2"),
        ("quiver", "check", "--rep", "s1.json", "--stability", "theta1"),
        ("quiver", "check", "--rep", "rational.json", "--stability", "theta1"),
        ("quiver", "check", "--rep", "rational.json", "--stability", "theta2"),
        ("figures", "--out-dir", "figs"),
        # normal forms from the CLI tests, and the zero polynomial
        ("ncalg", "normal-form", "--algebra", "acon", "--expr", "gamma*beta*beta - 1/2*t"),
        ("ncalg", "normal-form", "--algebra", "acon", "--expr", "0"),
    ]
    for name in catalog_names():
        for d in ("0", "2", "14"):
            cases.append(("ncalg", "hilbert", "--algebra", name, "--max-degree", d))
    for fixture in FIXTURES:
        cases.append(("skms", "--input", fixture))
        for j in range(-3, 4):
            for face in (f"C:{j}", f"D:{j}"):
                cases.append(("windows", "--face", face, "--input", fixture))
                cases.append(("windows", "--face", face, "--json", "--input", fixture))
            for chamber in (f"C:{j}", f"C:{j + 1}"):
                cases.append(("kappa", "--wall", f"D:{j}", "--chamber", chamber,
                              "--input", fixture))
    for suite in ("polyhedral", "algebra", "cohomology"):
        cases.append(("verify", "--suite", suite))
    return cases


CASES = _cases()


def _run(argv: tuple[str, ...], workdir: Path) -> dict:
    """Exit code and stdout of one CLI call, run inside workdir."""
    for name, data in REP_FILES.items():
        (workdir / name).write_text(json.dumps(data), encoding="utf-8")
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue()}


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    keys = [_key(argv) for argv in CASES]
    assert len(set(keys)) == len(keys)
    assert sorted(golden) == sorted(keys)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_golden_stdout(argv, golden, tmp_path):
    assert _run(argv, tmp_path) == golden[_key(argv)]


def _write() -> None:
    table = {}
    for argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table[_key(argv)] = _run(argv, Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
