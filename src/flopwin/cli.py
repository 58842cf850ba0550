"""Command-line entry point.

Subcommands cover presentation ingestion (bundled fixture name or JSON file),
the polyhedral and window computations, quiver representation checks, graded
algebra queries, cohomology multiplicities, the named verification suites and
SVG figure emission.

Exit codes: 0 success, 1 a computation ran and reported failure, 2 usage or
input error.  Stdout carries only the deterministic payload; timing lines go
to stderr, after one `warning: <message>` line per distinct warning the
computation raised, whatever the interpreter's warning filters.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import time
import warnings
from importlib import import_module
from typing import NoReturn


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def _load_presentation(source: str) -> GitPresentation:
    """Resolve a presentation argument: a file path or a bundled fixture name."""
    from .lattice import GitPresentation, load_fixture

    if os.path.exists(source):
        return GitPresentation.from_dict(_read_json(source))
    try:
        return load_fixture(source)
    except OSError:
        raise ValueError(f"no such file or bundled fixture: {source}") from None


# `--max-degree` is the last degree that `ncalg hilbert` and `coh
# multiplicity` report; the README, tests and bench ask for 15 at most.
# `coh multiplicity` expands only the Sym weights of total at most p + q: at
# degree 100 the README's query (label (1, -1), three summands) peaks at
# 17 MiB for the whole process and takes 0.08 s.  A label with p + q at least
# the degree keeps the whole table, which grows as the cube of the degree:
# `--irrep 100,0` on the same summands peaks at about 90 MiB and takes 0.5 s
# at degree 100, and would need about 1000 times that at degree 1000 (2-core
# VM, Python 3.11).  The cap also bounds the degree of an `ncalg normal-form
# --expr`, the one cutoff that query completes to: completing to degree 100
# takes about 2 s, growing about as the cube of the degree.
MAX_DEGREE_CAP = 100


def _max_degree(args, fallback: int) -> int:
    """The degree bound from --max-degree, else fallback."""
    if args.max_degree is None:
        return fallback
    try:
        value = int(args.max_degree)
    except ValueError:
        raise ValueError(f"--max-degree must be an integer, got {args.max_degree!r}") from None
    if not 0 <= value <= MAX_DEGREE_CAP:
        raise ValueError(f"--max-degree must be between 0 and {MAX_DEGREE_CAP}, got {value}")
    return value


def _render(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(payload) -> None:
    print(_render(payload))


def _cmd_skms(args) -> int:
    from .zonotope import skms

    p = _load_presentation(args.input)
    _emit(skms(p).to_jsonable())
    return 0


def _cmd_windows(args) -> int:
    from .windows import FaceRef, big_window, window

    p = _load_presentation(args.input)
    ref = FaceRef.parse(args.face)
    win = big_window(p, ref) if ref.kind == "D" else window(p, ref)
    if args.json:
        _emit(win.to_jsonable())
    else:
        print(win.render())
    return 0


def _cmd_kappa(args) -> int:
    from .windows import FaceRef, kappa_generators

    p = _load_presentation(args.input)
    gens = kappa_generators(p, FaceRef.parse(args.wall), FaceRef.parse(args.chamber))
    payload = [
        {
            "chi_class": list(g.chi_class),
            "cocharacter": list(g.cocharacter),
            "b_weight": list(g.b_weight),
            "chi_name": g.chi_name,
            "object": g.object_name,
        }
        for g in gens
    ]
    _emit(payload)
    return 0


def _cmd_quiver_check(args) -> int:
    from .exact import rational_json
    from .quiver import QuiverRep, base_equation, base_map, is_semistable, relations_hold, stratum

    data = _read_json(args.rep)
    # a value the codec reads but cannot render back (say, an integer past
    # the interpreter's digit limit) fails late, so the whole payload is
    # built and rendered before anything is printed
    try:
        rep = QuiverRep.from_dict(data)
        ok, residuals = relations_hold(rep)
        payload: dict = {"stability": args.stability, "relations_hold": ok}
        if ok:
            point = base_map(rep)
            payload["semistable"] = is_semistable(rep, args.stability)
            payload["stratum"] = stratum(rep)
            payload["base_point"] = point.to_dict()
            payload["base_equation"] = rational_json(base_equation(point))
        else:
            payload["residuals"] = {k: rational_json(v) for k, v in residuals.items()}
        text = _render(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.rep}: {exc}") from None
    print(text)
    return 0 if ok else 1


def _cmd_ncalg_hilbert(args) -> int:
    from . import ncalg

    pres = ncalg.catalog(args.algebra)
    d = _max_degree(args, 12)
    _emit({"algebra": args.algebra, "max_degree": d, "dims": ncalg.hilbert(pres, d)})
    return 0


def _cmd_ncalg_normal_form(args) -> int:
    from . import ncalg

    pres = ncalg.catalog(args.algebra)
    expr = ncalg.parse_expr(pres, args.expr)
    degree = max((pres.word_degree(w) for w in expr), default=0)
    if degree > MAX_DEGREE_CAP:
        raise ValueError(f"--expr has degree {degree}, above the cap of {MAX_DEGREE_CAP}")
    # completion is homogeneous, so its rules up to the expression's degree
    # fix the normal form there: no larger cutoff changes the answer
    rs = ncalg.completed(pres, degree)
    print(pres.render(rs.normal_form(expr)))
    return 0


def _parse_irrep(text: str) -> tuple[int, int]:
    from . import cohomology

    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 2:
            raise ValueError("irrep label must be 'p,q' or a representation name")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"irrep label {text!r} is not an integer pair") from None
        if p < q:
            raise ValueError("irrep label must satisfy p >= q")
        return (p, q)
    return cohomology.irrep_from_name(text.strip())


def _cmd_coh_multiplicity(args) -> int:
    from . import cohomology

    label = _parse_irrep(args.irrep)
    names = [part.strip() for part in args.sym.split(",") if part.strip()]
    if not names:
        raise ValueError("--sym needs at least one summand name")
    d = _max_degree(args, 15)
    multiplicities = cohomology.sym_multiplicities(label, names, d)
    payload = {
        "irrep": list(label),
        "max_degree": d,
        "multiplicities": multiplicities,
        "sym": names,
    }
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suite(args.suite)
    for res in results:
        print(f"{res.name}: {res.elapsed:.3f}s", file=sys.stderr)
    payload = {
        "suite": args.suite,
        "checks": [
            {"name": res.name, "pass": res.ok, "details": res.details} for res in results
        ],
        "overall": all(res.ok for res in results),
    }
    _emit(payload)
    return 0 if payload["overall"] else 1


def _cmd_figures(args) -> int:
    from .figures import emit_figures

    p = _load_presentation(args.input)
    try:
        paths = emit_figures(args.out_dir, p)
    except OSError as exc:
        raise ValueError(f"{args.out_dir}: {exc.strerror or exc}") from None
    _emit({"files": paths})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flopwin",
        description="Exact window, stability and graded-algebra computations "
        "for a reductive GIT presentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--input",
            default="universal_flop_length2.json",
            help="presentation JSON file or bundled fixture name "
            "(default: universal_flop_length2.json)",
        )

    p_skms = sub.add_parser("skms", help="hyperplane-arrangement descriptor as JSON")
    add_input(p_skms)
    p_skms.set_defaults(handler=_cmd_skms, engine="zonotope")

    p_win = sub.add_parser("windows", help="window generators for a face (C:j or D:j)")
    p_win.add_argument("--face", required=True, help="face reference, e.g. C:0 or D:-1")
    p_win.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_input(p_win)
    p_win.set_defaults(handler=_cmd_windows, engine="windows")

    p_kappa = sub.add_parser("kappa", help="wall-subcategory generators for a wall/chamber pair")
    p_kappa.add_argument("--wall", required=True, help="wall face, e.g. D:-1")
    p_kappa.add_argument("--chamber", required=True, help="adjacent chamber, e.g. C:0")
    add_input(p_kappa)
    p_kappa.set_defaults(handler=_cmd_kappa, engine="windows")

    p_quiver = sub.add_parser("quiver", help="quiver representation checks")
    quiver_sub = p_quiver.add_subparsers(dest="quiver_command", required=True)
    p_check = quiver_sub.add_parser("check", help="relations, stability and base point")
    p_check.add_argument("--rep", required=True, help="representation JSON file")
    p_check.add_argument(
        "--stability", default="theta1", choices=("theta1", "theta2"),
        help="stability chamber (default: theta1)",
    )
    p_check.set_defaults(handler=_cmd_quiver_check, engine="quiver")

    p_ncalg = sub.add_parser("ncalg", help="graded algebra queries")
    ncalg_sub = p_ncalg.add_subparsers(dest="ncalg_command", required=True)
    p_hilbert = ncalg_sub.add_parser("hilbert", help="graded dimensions of a catalog algebra")
    p_hilbert.add_argument("--algebra", required=True, help="catalog name, e.g. acon")
    p_hilbert.add_argument("--max-degree", default=None)
    p_hilbert.set_defaults(handler=_cmd_ncalg_hilbert, engine="ncalg")
    p_nf = ncalg_sub.add_parser("normal-form", help="normal form of an expression")
    p_nf.add_argument("--algebra", required=True, help="catalog name, e.g. acon")
    p_nf.add_argument("--expr", required=True, help="e.g. \"t*(beta*gamma - gamma*beta)\"")
    p_nf.set_defaults(handler=_cmd_ncalg_normal_form, engine="ncalg")

    p_coh = sub.add_parser("coh", help="equivariant cohomology queries")
    coh_sub = p_coh.add_subparsers(dest="coh_command", required=True)
    p_mult = coh_sub.add_parser("multiplicity", help="irreducible multiplicity in a Sym algebra")
    p_mult.add_argument("--irrep", required=True, help="name (e.g. Vstar) or pair \"p,q\"")
    p_mult.add_argument("--sym", required=True, help="comma-separated summands, e.g. V,S2Vm1,S2Vm1")
    p_mult.add_argument("--max-degree", default=None)
    p_mult.set_defaults(handler=_cmd_coh_multiplicity, engine="cohomology")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", default="all", help="suite name (default: all)")
    p_verify.set_defaults(handler=_cmd_verify, engine="verify")

    p_fig = sub.add_parser("figures", help="write the three SVG figures")
    p_fig.add_argument("--out-dir", required=True, help="output directory")
    add_input(p_fig)
    p_fig.set_defaults(handler=_cmd_figures, engine="figures")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    # Load only the engine module this subcommand runs, with the layers it
    # imports, and load it before the clock starts: the timing line then
    # measures the computation alone, and the handler's own imports only
    # look up modules already loaded.
    import_module(f".{args.engine}", __package__)
    start = time.perf_counter()
    # Record the handler's warnings under our own filter, so that neither a
    # file:line source echo nor an error-filtered traceback reaches stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args)
            sys.stdout.flush()  # a failed write raises here, not at interpreter exit
        except OSError as exc:
            # Handlers turn the OSErrors of the files they read or write into
            # ValueError, so this one came from writing the output.  Point
            # stdout at devnull so that the exit-time flush stays silent.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            reason = ("stdout was closed before the output was written"
                      if isinstance(exc, BrokenPipeError)
                      else f"the output could not be written: {exc.strerror or exc}")
            print(f"error: {reason}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    print(f"{args.command}: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def run() -> NoReturn:
    """The process entry of `flopwin` and `python -m flopwin.cli`.

    Runs `main` on the command line, then the registered `atexit` handlers,
    flushes stdout and then stderr, and leaves with `os._exit`: the
    interpreter's teardown frees nothing a finished query still needs.  A
    write to stderr that fails (say, to a full disk) cannot be reported; it
    exits 2 without a traceback.
    """
    try:
        code = main()
    except OSError:
        code = 2
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
