"""Acceptance gate: one run of `flopwin verify --suite all`, eleven criteria.

`flopwin.verify` holds the only copy of each acceptance check.  The module
fixture runs the command once, in process, and every criterion reads that
run: criterion n is the n-th check of ``verify.SUITES["all"]`` and passes when
the check passed within its runtime cap; criterion 11 is the command itself.
Each test prints one pass line (visible with -s).  Every comparison inside a
check is an equality of exact rational or integer data.
"""

import contextlib
import io
import json
import re

import pytest

from flopwin import verify
from flopwin.cli import main

# Seconds, each on that check's own elapsed time; the rest are bounded by the total.
CAPS = {"zonotope-hrep": 1.0, "skms-residues": 1.0, "hilbert-series": 30.0,
        "graded-kernels": 60.0, "quiver-sweeps": 60.0}
TOTAL_CAP = 180.0


@pytest.fixture(scope="module")
def verify_all():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--suite", "all"])
    times = {name: float(s) for name, s in re.findall(r"^(\S+): (\d+\.\d+)s$", err.getvalue(), re.M)}
    return code, json.loads(out.getvalue()), times


def _criterion(n):
    def test(verify_all):
        _, payload, times = verify_all
        name, check = verify.SUITES["all"][n - 1], payload["checks"][n - 1]
        assert check["name"] == name
        assert check["pass"], check["details"]
        assert times[name] < CAPS.get(name, TOTAL_CAP), f"{name} took {times[name]}s"
        print(f"[criterion {n:02d}] PASS {name}: {check['details']} ({times[name]:.3f}s)")
    return test


test_criterion_01_stability_polytope = _criterion(1)
test_criterion_02_arrangement_residues = _criterion(2)
test_criterion_03_window_tables = _criterion(3)
test_criterion_04_wall_generators = _criterion(4)
test_criterion_05_hilbert_series = _criterion(5)
test_criterion_06_graded_kernels = _criterion(6)
test_criterion_07_fiber_product = _criterion(7)
test_criterion_08_substitution_suite = _criterion(8)
test_criterion_09_cohomology_suite = _criterion(9)
test_criterion_10_quiver_sweeps = _criterion(10)


def test_criterion_11_cli_verify_all(verify_all):
    code, payload, times = verify_all
    assert code == 0
    assert payload["overall"] is True
    assert len(payload["checks"]) == 10
    assert times["verify"] < TOTAL_CAP, f"verify took {times['verify']}s"
    print(f"[criterion 11] PASS command-line verification of every suite ({times['verify']:.3f}s)")
