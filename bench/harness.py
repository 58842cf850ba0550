"""Timing, tracing and bookkeeping shared by the three workloads.

A run repeats whole rounds of one workload's fixed operation list.  Each
operation is timed on its own (oracle checks run outside the timed block),
then settled: attempted once, failed if its output disagrees with the oracle.
A failure counts as `failed` only when the operation is one of the known
program faults named in `oracles.known_fault`; any other disagreement
makes the run incorrect.

Tracing is opt-in per round.  A traced round records one span per operation
and one per call into a flopwin public function; spans stay in memory and
are written out once, when the run ends.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import oracles


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILE = 90  # a run attempts >= 100 operations, so >= 10 lie beyond it


class Run:
    """Latencies, spans, counters and oracle verdicts of one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.fault_hits: dict[str, int] = defaultdict(int)
        # one dict per round: traced flag, summed op time ("wall"), op latencies
        # ("lat") and op latencies by kind ("kinds")
        self.rounds: list[dict] = []
        self.spans: list = []  # [id, name, start_ns, end_ns, parent_id] records
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._round: dict | None = None
        self._stack: list[int] = []
        self._tracing = False

    # -- rounds ----------------------------------------------------------
    def begin_round(self, traced: bool) -> None:
        self._tracing = traced
        self._round = {"traced": traced, "wall": 0.0, "lat": [], "kinds": defaultdict(list)}
        if traced:
            self._stack.append(self._open("bench.round"))

    def end_round(self) -> None:
        if self._tracing:
            self._close(self._stack.pop())
        self.rounds.append(self._round)
        self._round = None
        self._tracing = False

    # -- operations ------------------------------------------------------
    @property
    def tracing(self) -> bool:
        return self._tracing

    @contextmanager
    def op(self, kind: str, span: str | None = None):
        """Time one user-level operation; module calls inside become children.

        The operation's span is named `span`, by default "bench.<kind>".
        """
        sid = self._open(span or "bench." + kind) if self._tracing else None
        if sid is not None:
            self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if sid is not None:
                self._stack.pop()
                self._close(sid)
            self._round["wall"] += elapsed
            self._round["lat"].append(elapsed)
            self._round["kinds"][kind].append(elapsed)

    def call(self, name: str, fn, *args, **kwargs):
        """Call a flopwin public function, with a span when the round is traced."""
        if not self._tracing:
            return fn(*args, **kwargs)
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def count(self, name: str, amount: float) -> None:
        """Add to a per-layer counter (traced rounds only)."""
        if self._tracing:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Record one observation of a per-layer figure (traced rounds only)."""
        if self._tracing:
            self.samples[name].append(value)

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span whose interval was measured elsewhere (a CLI child)."""
        if self._tracing:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), name, start_ns, end_ns, parent))

    def settle(self, op_id: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        fault = oracles.known_fault(op_id)
        if fault is not None:
            self.failed += 1
            self.fault_hits[fault] += 1
        else:
            self.mismatches.append(f"{op_id}: {problem}")

    # -- span bookkeeping --------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter_ns(), None, parent])
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter_ns()

    # -- summaries -------------------------------------------------------
    def latencies(self, traced: bool = False, kinds=None) -> list[float]:
        """Op latencies of the untraced (or traced) rounds, optionally by kind."""
        out: list[float] = []
        for rnd in self.rounds:
            if rnd["traced"] != traced:
                continue
            if kinds is None:
                out.extend(rnd["lat"])
            else:
                for kind in kinds:
                    out.extend(rnd["kinds"].get(kind, ()))
        return out

    def round_median(self, kinds=None, traced: bool = False) -> float:
        """Median over rounds of the op time per round, optionally of some kinds."""
        return statistics.median(
            rnd["wall"] if kinds is None
            else sum(sum(rnd["kinds"].get(k, ())) for k in kinds)
            for rnd in self.rounds if rnd["traced"] == traced
        )

    def op_latency(self, traced: bool = False) -> dict:
        lat = self.latencies(traced)
        return {
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (percentile(lat, TAIL_PERCENTILE) * 1e3, "ms"),
        }

    def span_stats(self) -> dict[str, list[float]]:
        """Durations in seconds per span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for _sid, name, start, end, _parent in self.spans:
            out[name].append((end - start) / 1e9)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time not covered by child spans."""
        child = defaultdict(int)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent in self.spans:
            out[name.split(".")[0]] += (end - start - child[sid]) / 1e9
        return out

    def write_trace(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "run_id"],
            "spans": [list(s) + [self.run_id] for s in self.spans],
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def run_rounds(run: Run, seconds: float, round_fn, trace: bool) -> None:
    """Repeat whole rounds until the next one would end past `seconds`.

    Untraced runs need one round.  Traced runs alternate untraced and traced
    rounds, starting untraced, and need one of each, so the traced numbers
    can be set against untraced ones from the same process.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        traced = trace and len(durations) % 2 == 1
        t0 = time.perf_counter()
        run.begin_round(traced)
        round_fn(run)
        run.end_round()
        durations.append(time.perf_counter() - t0)
        enough = len(durations) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
