#!/usr/bin/env python3
"""damcheck benchmark: seeded workloads, time to verdict, per-module split.

    python3 perfbench/run.py --workload sat-search --seed 1 --seconds 20 --trace 0

Run from the repository root; damcheck is imported from ./src only. Each run
sets up its inputs (five times, reporting the median), computes reference
verdicts, then repeats passes over the workload's fixed query set for
--seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run also profiles some passes with
cProfile and reports the per-layer ones. End-to-end times are given at a reference host
speed: passes and set-ups are interleaved with a fixed piece of reference work
whose timing shows how fast the shared host runs at that moment (see
HostPace). A results file with machine notes and the raw times goes to
perfbench/results/ (or --out). Exit code 0 means every verdict matched its
reference, 1 that one did not, 2 that the run could not start."""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import pstats
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402

MODULES = ("mechjson", "model", "parser", "formula", "checker", "analysis", "auction", "gadgets")
SPANS = ("generate", "load", "save", "parse", "translate", "format", "query", "oracle")
SETUPS = 9          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # timed passes per run, however long a pass takes
QUERY_LIMIT_S = 20.0
PACE_EVERY_S = 0.02     # a pass times the reference work this often
PACE_NOMINAL_S = 1.2e-4  # the reference work's time at the reference speed
PACE_SETUP_SAMPLES = 5   # reference samples before and after each set-up


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout("query exceeded the per-query limit")


class Recorder:
    """Times every damcheck call of one pass by span name, enforces the
    per-query limit with a real-time interval timer on this process, and
    keeps the pass's query latencies and counters."""

    def __init__(self, limit: float):
        self.limit = limit
        self.spans: Counter = Counter()
        self.bytes: Counter = Counter()
        self.counts: Counter = Counter()
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def _timed(self, span, fn, args, size):
        began = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                return fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            self.last = time.perf_counter() - began
            self.spans[span] += self.last
            self.bytes[span] += size

    def step(self, span, fn, *args, size=0):
        """A call that is not itself a query (parse, format)."""
        return self._timed(span, fn, args, size)

    def query(self, span, fn, *args, size=0):
        """One call to a verdict-producing entry point."""
        self.attempted += 1
        try:
            return self._timed(span, fn, args, size)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.latencies.append(self.last)

    def count(self, name, n):
        self.counts[name] += n


def reference_work() -> float:
    """Time one fixed piece of pure-Python work, dict, tuple and integer
    operations like those of damcheck's inner loops. The collector is off,
    so that the program's heap does not change its cost."""
    gc.disable()
    try:
        began = time.perf_counter()
        table: dict = {}
        for i in range(400):
            key = (i, i % 7)
            table[key] = table.get(key, 0) + i * 3 // 2
        return time.perf_counter() - began
    finally:
        gc.enable()


class HostPace:
    """A host shared with other tenants can run the same code 40% slower for
    seconds to minutes at a time, in CPU time as in wall time (as measured on
    a 2-vCPU virtual machine). Timing the reference work
    every PACE_EVERY_S, between queries and outside their timed spans, shows
    how fast the host runs meanwhile; scale() turns a time measured then into
    seconds at the reference speed, at which the work takes PACE_NOMINAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self, force=False) -> None:
        if force or time.perf_counter() >= self.due:
            self.samples.append(reference_work())
            self.due = time.perf_counter() + PACE_EVERY_S

    def scale(self) -> float:
        # The middle half of the samples: an interrupted sample does not
        # count, and a pass that spans a change of speed gets the average.
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        return PACE_NOMINAL_S / statistics.fmean(ordered[quarter:len(ordered) - quarter])


@dataclass
class Pass:
    rec: Recorder
    wall: float
    scale: float
    verdicts: int
    matched: int


def run_pass(tasks, expected, limit: float, profiler=None) -> Pass:
    gc.collect()
    rec = Recorder(limit)
    pace = HostPace()
    wall = 0.0
    verdicts = matched = 0
    for task, want in zip(tasks, expected):
        failed_before = rec.failed
        pace.sample()
        began = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            got = task.run(rec)
        except Exception:
            if rec.failed == failed_before:  # a parse or format step failed
                rec.attempted += 1
                rec.failed += 1
            if rec.failed <= 3:
                print(f"failed {task.kind}: {traceback.format_exc(limit=-2)}", file=sys.stderr)
            continue
        finally:
            if profiler is not None:
                profiler.disable()
            wall += time.perf_counter() - began
        verdicts += 1
        matched += bool(task.matches(got, want))
    pace.sample(force=True)
    return Pass(rec, wall, pace.scale(), verdicts, matched)


def import_damcheck():
    """A fresh import of damcheck from ./src, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "damcheck" or m.startswith("damcheck.")]:
        del sys.modules[name]
    dc = importlib.import_module("damcheck")
    if Path(dc.__file__).resolve().parent != SRC / "damcheck":
        raise ImportError(f"damcheck was imported from {dc.__file__}, not from {SRC}")
    return dc


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int:
    """90, or the highest whole percentile with ten samples beyond it."""
    if n >= 100:
        return 90
    return max(1, min(90, int(100 * (1 - 10 / n)))) if n > 10 else 50


# --- per-module split from cProfile ---------------------------------------------


def module_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent == SRC / "damcheck" and path.stem in MODULES:
        return path.stem
    if path.parent == HERE:
        return "bench"
    return None


def split_by_module(stats: dict) -> tuple[Counter, Counter]:
    """Self time and call count per damcheck module. Builtin and standard
    library self time goes to the damcheck modules that called it, in
    proportion to the time spent under each calling edge."""
    shares: dict = {}

    def share(key, visiting=frozenset()) -> dict:
        if key in shares:
            return shares[key]
        owner = module_of(key[0])
        if owner is not None:
            result = {owner: 1.0}
        elif key in visiting:
            return {}
        else:
            callers = stats[key][4]
            weights = {c: edge[2] or edge[0] for c, edge in callers.items() if c in stats}
            total = sum(weights.values()) or 1.0
            result = Counter()
            for caller, weight in weights.items():
                for mod, part in share(caller, visiting | {key}).items():
                    result[mod] += part * weight / total
        shares[key] = result
        return result

    self_s: Counter = Counter()
    calls: Counter = Counter()
    for key, (_, ncalls, tottime, _, _) in stats.items():
        owner = module_of(key[0])
        if owner is not None:
            calls[owner] += ncalls
        for mod, part in share(key).items():
            self_s[mod] += tottime * part
    return self_s, calls


def calls_to(stats: dict, fn) -> int:
    code = fn.__code__
    return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]


# --- the run ---------------------------------------------------------------------


def machine_notes(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def setup(args, golden, tmpdir, profile=None):
    """Import damcheck, generate the inputs and write temp files, SETUPS
    times; returns the last set-up (profiled, if asked), the median set-up
    time at the reference speed, and the median raw time of generation."""
    totals, generates = [], []
    for rep in range(SETUPS):
        gc.collect()
        pace = HostPace()
        for _ in range(PACE_SETUP_SAMPLES):
            pace.sample(force=True)
        if profile is not None and rep == SETUPS - 1:
            profile.enable()
        began = time.perf_counter()
        dc = import_damcheck()
        imported = time.perf_counter()
        tasks = workloads.build(args.workload, args.seed, args.scale, dc, golden, tmpdir)
        done = time.perf_counter()
        if profile is not None:
            profile.disable()
        for _ in range(PACE_SETUP_SAMPLES):
            pace.sample(force=True)
        totals.append((done - began) * pace.scale())
        generates.append(done - imported)
    return dc, tasks, statistics.median(totals), statistics.median(generates)


def timed_passes(tasks, expected, limit, budget, minimum, profiler=None):
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(run_pass(tasks, expected, limit, profiler))
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= minimum and time.perf_counter() - began + typical > budget:
            return passes


def span_medians(passes) -> dict:
    return {s: float(statistics.median(p.rec.spans[s] for p in passes)) for s in SPANS}


def rate_kb_per_s(passes, spans) -> float:
    nbytes = sum(p.rec.bytes[s] for p in passes for s in spans)
    seconds = sum(p.rec.spans[s] for p in passes for s in spans)
    return nbytes / 1024 / seconds if seconds else 0.0


def end_to_end(passes, setup_s) -> tuple[dict, dict]:
    """Times at the reference speed: each pass's wall time and query
    latencies scaled by the host's pace during that pass."""
    latencies = [x * p.scale for p in passes for x in p.rec.latencies]
    tail = tail_percentile(len(latencies))
    verdicts = sum(p.verdicts for p in passes)
    attempted = sum(p.rec.attempted for p in passes)
    failed = sum(p.rec.failed for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "verdicts_ok": (sum(p.matched for p in passes) / verdicts if verdicts else 0.0, "share"),
        "answered_share": (1 - failed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    details = {
        "passes": len(passes),
        "pass_walls_raw_s": [p.wall for p in passes],
        "pass_scales": [p.scale for p in passes],
        "pace_nominal_s": PACE_NOMINAL_S,
        "query_samples": len(latencies),
        "queries_per_pass": passes[0].rec.attempted,
        "tail_percentile": tail,
        "failed_share": failed / attempted,
    }
    return metrics, details


def per_layer(dc, plain, traced, profile, setup_profile, generate_s, oracle_s) -> dict:
    """Module self time and calls are those of one set-up (with its reference
    verdicts) plus one pass; the counters are per pass."""
    stats = pstats.Stats(profile).stats
    n = len(traced)
    self_s, calls = split_by_module(stats)
    once_s, once_calls = split_by_module(pstats.Stats(setup_profile).stats)
    metrics = {}
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = (once_s[mod] + self_s[mod] / n, "s")
        metrics[f"{mod}.calls"] = (once_calls[mod] + calls[mod] / n, "count")
    spans = span_medians(plain)
    spans["generate"], spans["oracle"] = generate_s, oracle_s
    for s in SPANS:
        metrics[f"span.{s}_s"] = (spans[s], "s")

    counts = traced[-1].rec.counts
    updates_cached = calls_to(stats, dc.checker.cached_update) / n
    allocations = calls_to(stats, dc.auction.get_rule("smf")) / n
    evaluations = calls_to(stats, dc.auction.evaluate) / n
    metrics["analysis.states"] = (counts["analysis.states"], "count")
    metrics["checker.states"] = (counts["checker.states"], "count")
    metrics["checker.update_hit_ratio"] = (
        1 - counts["checker.states"] / updates_cached if updates_cached else 0.0, "ratio")
    metrics["auction.allocations"] = (allocations, "count")
    metrics["auction.evaluate_hit_ratio"] = (
        1 - allocations / evaluations if evaluations else 0.0, "ratio")
    metrics["model.updates"] = (calls_to(stats, dc.apply_joint_action) / n, "count")
    metrics["model.precondition_calls"] = (calls_to(stats, dc.action_precondition) / n, "count")
    metrics["parser.kb_per_s"] = (rate_kb_per_s(plain, ("parse",)), "KB/s")
    metrics["mechjson.kb_per_s"] = (rate_kb_per_s(plain, ("load", "save")), "KB/s")
    metrics["translate.output_kb"] = (counts["translate.output_bytes"] / 1024, "KB")
    metrics["trace_overhead"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain),
        "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json")
    parser.add_argument("--query-limit", type=float, default=QUERY_LIMIT_S)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (SRC / "damcheck" / "__init__.py").is_file():
        print(f"damcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    # Set and frozenset iteration order follows string hashing; pin it so a
    # seed repeats its work, and its call counts, exactly.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    signal.signal(signal.SIGALRM, _on_alarm)
    notes = machine_notes(args.seed)
    golden = json.loads(args.golden.read_text(encoding="utf-8"))
    tmproot = ROOT / ".perfbench_tmp"
    tmproot.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=tmproot))
    try:
        setup_profile = cProfile.Profile() if args.trace else None
        dc, tasks, setup_s, generate_s = setup(args, golden, tmpdir, setup_profile)
        if setup_profile is not None:
            setup_profile.enable()  # the last set-up's profile goes on to the references
        began = time.perf_counter()
        expected = [task.reference() for task in tasks]
        oracle_s = time.perf_counter() - began
        if setup_profile is not None:
            setup_profile.disable()

        if args.trace:
            plain = timed_passes(tasks, expected, args.query_limit, args.seconds * 0.3, 2)
            profile = cProfile.Profile()
            remaining = args.seconds - sum(p.wall for p in plain)
            traced = timed_passes(tasks, expected, args.query_limit, remaining, 1, profile)
            metrics = per_layer(dc, plain, traced, profile, setup_profile, generate_s, oracle_s)
            passes = plain + traced
            details = {"untraced_passes": len(plain), "traced_passes": len(traced)}
        else:
            passes = timed_passes(tasks, expected, args.query_limit, args.seconds, MIN_PASSES)
            metrics, details = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmproot.rmdir()
        except OSError:
            pass  # another run still uses it

    verdicts = sum(p.verdicts for p in passes)
    correct = verdicts > 0 and sum(p.matched for p in passes) == verdicts
    result = {
        "correct": correct,
        "attempted": sum(p.rec.attempted for p in passes),
        "failed": sum(p.rec.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    notes["loadavg_end"] = os.getloadavg()
    out = args.out or HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "scale": args.scale, "seconds": args.seconds,
              "trace": args.trace, "machine": notes, "details": details, **result}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("machine: " + json.dumps(notes))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
