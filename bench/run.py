"""flopwin benchmark: one seeded workload per run, checked against oracles.

    python3 bench/run.py --workload quiver-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
run repeats whole rounds of the workload for about --seconds, checks every
output against the oracles in oracles.py and prints, as its last line, one
JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
A traced run also writes its spans to .bench_out/.  Lines before the last
one record the environment, operation latencies, the workload's own figures
and the known faults hit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import algebra_ladder
import cli_session
import quiver_sweep
from harness import Run, percentile, run_rounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = {"quiver-sweep": quiver_sweep, "algebra-ladder": algebra_ladder,
             "cli-session": cli_session}
SETUP_STARTS, SETUP_BUILDS = 9, 3

QUIVER_FUNCTIONS = ("from_chart", "from_dict", "relations_hold", "base_map", "stratum",
                    "is_semistable", "singular_locus_check")
QUIVER_CALLS = QUIVER_FUNCTIONS + ("base_equation", "scalar_pair_rep")
NCALG_FUNCTIONS = ("complete", "normal_form", "graded_kernel", "ideal_dims", "resolution_check",
                   "fiber_product")
COUNTERS = ("ncalg.complete.rules", "ncalg.basis.words", "ncalg.matrix_cells",
            "cohomology.char_terms")
CLI_COMMANDS = ("skms", "windows", "kappa", "ncalg-hilbert", "ncalg-normal-form",
                "coh-multiplicity", "quiver-check", "figures")
LAYERS = ("bench", "cli", "quiver", "ncalg", "cohomology", "windows", "zonotope", "figures")


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measure_setup(wl, seed: int, workdir: str) -> tuple[float, object]:
    """Set-up time: interpreter start with the workload's imports (median of
    SETUP_STARTS processes) plus seeded input generation (median of SETUP_BUILDS)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", wl.IMPORTS]
    start_s, _ = _median_time(lambda: subprocess.run(argv, env=env, check=True), SETUP_STARTS)
    build_s, inputs = _median_time(lambda: wl.build(seed, workdir), SETUP_BUILDS)
    return start_s + build_s, inputs


def per_layer(run: Run) -> dict:
    """Every per-layer metric from the traced rounds; totals are per round.
    A layer the workload leaves idle reads 0."""
    rounds = sum(1 for r in run.rounds if r["traced"])
    spans = run.span_stats()
    busy = lambda *names: sum(sum(spans.get(n, ())) for n in names) / rounds
    median = lambda xs: statistics.median(xs) if xs else 0.0
    metrics = {}
    for fn in QUIVER_FUNCTIONS:
        calls = spans.get(f"quiver.{fn}", [])
        metrics[f"quiver.{fn}.busy_s"] = (busy(f"quiver.{fn}"), "s")
        metrics[f"quiver.{fn}.call_p50_us"] = (median(calls) * 1e6, "us")
        metrics[f"quiver.{fn}.call_tail_us"] = (
            percentile(calls, 90) * 1e6 if calls else 0.0, "us")
    quiver_calls = sum(len(spans.get(f"quiver.{fn}", ())) for fn in QUIVER_CALLS)
    metrics["quiver.calls"] = (quiver_calls / rounds, "count")
    for fn in NCALG_FUNCTIONS:
        metrics[f"ncalg.{fn}.busy_s"] = (busy(f"ncalg.{fn}"), "s")
    metrics["ncalg.normal_form.calls"] = (len(spans.get("ncalg.normal_form", ())) / rounds, "count")
    for name in COUNTERS:
        metrics[name] = (run.counters.get(name, 0) / rounds, "count")
    metrics["cohomology.sym_graded.busy_s"] = (busy("cohomology.sym_graded"), "s")
    metrics["cohomology.section_counts.busy_s"] = (
        busy("cohomology.ext1_FG_dims", "cohomology.verify_semiorthogonality"), "s")
    metrics["cli.overhead_ms"] = (median(run.samples.get("cli.overhead_ms", [])), "ms")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.p50_ms"] = (median(run.latencies(traced=True, kinds=[cmd])) * 1e3, "ms")
    for check in cli_session.VERIFY_MODULE:
        metrics[f"verify.{check}.s"] = (median(run.samples.get(f"verify.{check}.s", [])), "s")
    self_times = run.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0) / rounds, "s")
    return metrics


def end_to_end(run: Run, setup_s: float, peak_rss_mib: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (run.round_median(), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def tracing_overhead(run: Run) -> dict:
    """Traced minus untraced round time and operation latencies, same process."""
    wall = run.round_median(traced=False)
    traced_wall = run.round_median(traced=True)
    plain, traced = run.op_latency(traced=False), run.op_latency(traced=True)
    return {
        "trace.wall_delta_s": (traced_wall - wall, "s"),
        "trace.wall_delta_pct": (100 * (traced_wall - wall) / wall, "%"),
        "trace.op_p50_delta_ms": (traced["op_p50_ms"][0] - plain["op_p50_ms"][0], "ms"),
        "trace.op_tail_delta_ms": (traced["op_tail_ms"][0] - plain["op_tail_ms"][0], "ms"),
    }


def _peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def _show(prefix: str, metrics: dict) -> None:
    print(f"# {prefix} " + " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flopwin", "cli.py")):
        print(f"error: no flopwin sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = os.path.join(OUT, run_id)
    os.makedirs(workdir, exist_ok=True)
    run = Run(run_id)
    try:
        setup_s, inputs = measure_setup(wl, args.seed, workdir)
        run_rounds(run, args.seconds, lambda r: wl.run_round(inputs, r), bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak = _peak_rss_mib(args.workload)

    ops = sum(len(r["lat"]) for r in run.rounds)
    nproc = len(os.sched_getaffinity(0))  # what `nproc` prints
    print(f"# env python={platform.python_version()} nproc={nproc} seed={args.seed} "
          f"workload={args.workload} seconds={args.seconds:g} trace={args.trace} "
          f"rounds={len(run.rounds)} ops={ops}")
    _show("ops", run.op_latency())
    _show("workload", wl.report(run))
    for fault, hits in sorted(run.fault_hits.items()):
        print(f"# known fault x{hits}: {fault}")
    for problem in run.mismatches[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(run)
        metrics.update(tracing_overhead(run))
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        run.write_trace(path, {"workload": args.workload, "seed": args.seed})
        print(f"# trace: {len(run.spans)} spans written to {os.path.relpath(path, ROOT)}")
        _show("untraced", end_to_end(run, setup_s, peak))
    else:
        metrics = end_to_end(run, setup_s, peak)
    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
