"""Seeded fuzzing of the command line, through ``cli.main`` in process.

Every generated input must keep the CLI contract: exit 0, 1 or 2, no
exception escaping ``main``, nothing like a traceback on stderr, and a
stdout that is empty or the command's one payload (JSON, or a single line
for the text renderings).  A representation file with a string where a
vector, a matrix or a matrix row belongs must exit 2.  Magnitudes,
multiplicities and degrees stay small so that the whole run takes well
under two seconds.
"""

import json
import random

import pytest

from flopwin.cli import main

SEED = 8
CASES = 40

NUMBERS = [0, 1, -1, 2, "1/2", "-7/3"]
SCALARS = NUMBERS + ["1/0", "x", "", None, True, 1.5, "1e3", [], {}]
QUIVER_KEYS = ["alpha", "alpha_star", "beta", "gamma", "delta", "params"]
WEYL_CHOICES = {
    1: [[], [[[-1]]], [[[1]]]],
    2: [[], [[[0, 1], [1, 0]]], [[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]]],
}
BAD_WEYL = [[[[1, 1], [0, 1]]], [[[2, 0], [0, 1]]], [[[0, 1], [1, 1]]], [[[-1]]]]
ALGEBRAS = {
    "acon": ["t", "beta", "gamma"], "endG": ["beta", "gamma"], "Ctbc": ["t", "b", "c"],
    "Cbc": ["b", "c"], "afib": ["Tbeta", "Tgamma", "Tdelta"],
    "laufer_target": ["beta", "gamma"], "bogus": ["x"],
}
DIGIT_VECTORS = ["12", "00"]
DIGIT_MATRICES = [["01", "00"], [[1, 0], "10"], "0010"]
NC_NOISE = ["x_1", "3/0", "(", ")", "^", ".", "*", "+", "-", "1/2"]
IRREP_NAMES = ["O", "V", "Vstar", "D", "S2V", "S2Vm1", "W", "", " V "]


def _vector(rng, rank):
    return [rng.randint(-2, 2) for _ in range(rank)]


def _scalar(rng):
    return rng.choice(NUMBERS if rng.random() < 0.95 else SCALARS)


def _matrix(rng):
    return [[_scalar(rng) for _ in range(2)] for _ in range(2)]


def _quiver_text(rng):
    rep = {
        "alpha": _vector(rng, 2),
        "alpha_star": _vector(rng, 2),
        "beta": _matrix(rng),
        "gamma": _matrix(rng),
    }
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(QUIVER_KEYS)
        roll = rng.random()
        if roll < 0.3:
            rep.pop(key, None)
        elif key == "params" and roll < 0.7:
            names = ["t", "Tbeta", "Tgamma", "Tdelta", "bogus"]
            rep[key] = {rng.choice(names): _scalar(rng) for _ in range(2)}
        elif roll < 0.8:
            rep[key] = _matrix(rng)
        else:
            rep[key] = rng.choice(SCALARS + [[1], [1, 2, 3], [[1, 2], [3]]])
    if rng.random() < 0.15:
        # digits where numbers belong: a vector, or a matrix row, written as a string
        key = rng.choice(QUIVER_KEYS[:4])
        rep[key] = rng.choice(DIGIT_VECTORS if key.startswith("alpha") else DIGIT_MATRICES)
    text = json.dumps(rep)
    if rng.random() < 0.1:
        text = text[: rng.randint(0, len(text))]
    # a string where a vector, a matrix or a matrix row belongs is an input error
    vectors = [rep.get("alpha"), rep.get("alpha_star")]
    for key in ("beta", "gamma", "delta"):
        vectors += rep[key] if isinstance(rep.get(key), list) else [rep.get(key)]
    return text, any(isinstance(v, str) for v in vectors)


def _presentation_text(rng):
    rank = rng.choice([1, 2, 2]) if rng.random() < 0.9 else rng.choice([0, 3])
    weyl = rng.choice(WEYL_CHOICES.get(rank, [[]]) if rng.random() < 0.9 else BAD_WEYL)
    weights = []
    for _ in range(rng.randint(0, 4)):
        vec = _vector(rng, rank)
        mult = rng.choice([1, 1, 2, 3]) if rng.random() < 0.95 else 0
        # close under the Weyl generators so most presentations validate
        images = [vec]
        for g in weyl:
            if len(g) == rank:
                images.append([sum(a * b for a, b in zip(row, vec)) for row in g])
        weights += [{"vec": v, "mult": mult} for v in images]
    data = {"rank": rank, "weights": weights, "weyl": weyl}
    if rank == 2 and rng.random() < 0.5:
        data["roots"] = [[1, -1], [-1, 1]]
    if rng.random() < 0.05:
        data[rng.choice(["rank", "weights", "weyl", "roots"])] = rng.choice(SCALARS)
    return json.dumps(data)


def _presentation_argv(rng, path, out_dir):
    j = rng.randint(-3, 3)
    face = f"{rng.choice('CD')}:{j}"
    command = rng.choice(["skms", "windows", "windows-json", "kappa", "figures"])
    if command == "skms":
        return ["skms", "--input", path], True
    if command == "windows":
        return ["windows", "--face", face, "--input", path], False
    if command == "windows-json":
        return ["windows", "--face", face, "--json", "--input", path], True
    if command == "kappa":
        chamber = f"C:{j + rng.choice([0, 1, 2])}"
        return ["kappa", "--wall", f"D:{j}", "--chamber", chamber, "--input", path], True
    return ["figures", "--input", path, "--out-dir", out_dir], True


def _expr_argv(rng):
    algebra = rng.choice(sorted(ALGEBRAS))
    # a sum of at most three monomials in at most three generators keeps the
    # expression degree small
    tokens = []
    for k in range(rng.randint(1, 3)):
        if k:
            tokens.append(rng.choice("+-"))
        tokens.append(str(rng.choice(NUMBERS[1:4])))
        for _ in range(rng.randint(0, 1 if algebra == "laufer_target" else 3 - k)):
            tokens += ["*", rng.choice(ALGEBRAS[algebra])]
    if rng.random() < 0.3:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(NC_NOISE))
    expr = rng.choice(["", " "]).join(tokens)
    return ["ncalg", "normal-form", "--algebra", algebra, f"--expr={expr}"], False


def _irrep_argv(rng):
    roll = rng.random()
    if roll < 0.4:
        label = rng.choice(IRREP_NAMES)
    elif roll < 0.8:
        label = f"{rng.randint(-3, 3)},{rng.randint(-3, 3)}"
    else:
        label = rng.choice(["1,", ",", "a,b", "1,2,3", "2 , 1"])
    sym = ",".join(rng.choice(IRREP_NAMES[:6] if rng.random() < 0.8 else IRREP_NAMES)
                   for _ in range(rng.randint(0, 3)))
    return ["coh", "multiplicity", f"--irrep={label}", f"--sym={sym}",
            f"--max-degree={rng.randint(-1, 4)}"], True


def _check(capsys, argv, json_payload):
    try:
        code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape breaks the contract
        pytest.fail(f"{argv!r} raised {exc!r}")
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err, argv
    if captured.out:
        if json_payload:
            json.loads(captured.out)
        else:
            assert captured.out.count("\n") == 1 and captured.out.endswith("\n"), argv
    return code


def test_quiver_check_files(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "rep.json"
    rejected = 0
    for _ in range(CASES):
        text, malformed = _quiver_text(rng)
        path.write_text(text, encoding="utf-8")
        stability = rng.choice(["theta1", "theta2"])
        code = _check(capsys, ["quiver", "check", "--rep", str(path), "--stability", stability],
                      True)
        if malformed:
            assert code == 2, text
            rejected += 1
    assert rejected


def test_input_presentations(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "pres.json"
    for _ in range(CASES):
        path.write_text(_presentation_text(rng), encoding="utf-8")
        _check(capsys, *_presentation_argv(rng, str(path), str(tmp_path / "figs")))


def test_expressions(capsys):
    rng = random.Random(SEED)
    for _ in range(CASES):
        _check(capsys, *_expr_argv(rng))


def test_irrep_labels(capsys):
    rng = random.Random(SEED)
    for _ in range(CASES):
        _check(capsys, *_irrep_argv(rng))
