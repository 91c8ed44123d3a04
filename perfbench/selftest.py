#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size; takes under a minute.

    python3 perfbench/selftest.py

Checks that every workload runs and prints exactly the metrics BENCHMARK.json
names, with their units, in both modes; that a corrupted golden verdict makes
verdicts_ok drop below 1 and fails the run; that queries past the per-query
limit count as failed without aborting the pass; and that the benchmark
refuses to run without the damcheck sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra, cwd=ROOT) -> tuple[int, dict | None]:
    """Run the benchmark command; (exit code, parsed last stdout line)."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def tiny(workload, trace, workdir, *extra):
    out = workdir / f"{workload}-{trace}.json"
    return bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny", "--out", str(out), *extra)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def main() -> int:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in workloads.WORKLOADS:
                code, result = tiny(workload, trace, workdir)
                expect(code == 0 and result is not None, f"{workload} trace {trace} exited {code}")
                expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{workload}: result keys {sorted(result)}")
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                       f"{workload} trace {trace}: {result['correct']=} {result['failed']=}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == units, f"{workload} trace {trace}: metrics differ from {section}")
                print(f"ok  {workload} trace {trace}: {len(got)} metrics")

        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        flip = str.maketrans("01", "10")
        golden["modal"]["verdicts"] = [v.translate(flip) for v in golden["modal"]["verdicts"]]
        corrupted = workdir / "golden-corrupted.json"
        corrupted.write_text(json.dumps(golden), encoding="utf-8")
        code, result = tiny("modal-check", 0, workdir, "--golden", str(corrupted))
        ok = result["metrics"]["verdicts_ok"]["value"]
        expect(code == 1 and not result["correct"] and ok < 1,
               f"corrupted golden: exit {code}, verdicts_ok {ok}")
        print(f"ok  corrupted golden verdicts: verdicts_ok {ok:.3f}, exit 1")

        code, result = tiny("sat-search", 0, workdir, "--query-limit", "1e-6")
        answered = result["metrics"]["answered_share"]["value"]
        expect(result["failed"] == result["attempted"] > 0 and answered == 0,
               f"per-query limit: {result['failed']} of {result['attempted']} failed")
        print(f"ok  per-query limit: {result['failed']} of {result['attempted']} queries failed")

        bare = workdir / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result = bench("--workload", "sat-search", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        expect(code != 0 and result is None, f"without sources: exit {code}, result {result}")
        print(f"ok  without damcheck sources: exit {code}, no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
