"""Spread report: run the workloads under several seeds and show how much each
end-to-end metric moves between runs, next to its bound in BENCHMARK.json.

    python3 bench/spread.py --seeds 1-10                      # every workload
    python3 bench/spread.py --workload algebra-ladder --seeds 1-5

The spread of a metric is the distance between the first and third quartile
of its values (statistics.quantiles, n=4) as a share of their median.  The
bounds in BENCHMARK.json were set from this report: every spread but
setup_s's should stay under a third of its metric's bound.  Runs go one at a
time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def report(spec: dict, workload: str, seed_list: list[int]) -> None:
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        line = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{workload} failed shares: {sorted(shares)}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if metric["name"] == "setup_s":
            flag = "not checked"
        else:
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{workload} {metric['name']:>14}: median {med:.5g} {metric['unit']}, "
              f"spread {spread:.3f}, bound {metric['bound']} -> {flag}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        report(spec, workload, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
