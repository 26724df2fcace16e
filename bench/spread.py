"""Run the benchmark on several seeds; report each metric's median and spread.

    python3 bench/spread.py --workload scan_d5 --seeds 1-10
    python3 bench/spread.py --workload dense_d300 --seeds 3,5,8

Runs bench/run_bench.py once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json and ``--trace 0``, so that it measures
exactly what the bounds are set against.  For every end-to-end metric it
prints the median, the quartiles and the spread, which is
(Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives them,
next to the metric's bound, and the same for the timed metrics before they
were scaled by the speed probe (bench/NOTES.md).  The summary is also written to
bench/.work/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        record = BENCH_DIR / ".work" / args.workload / f"result-seed{seed}-trace0.json"
        for name, value in json.loads(record.read_text())["detail"]["unscaled"].items():
            values.setdefault(f"{name} (unscaled)", []).append(value)

    summary = {}
    print(f"{'metric':44s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  (>= bound/3)"
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    out = BENCH_DIR / ".work" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                               "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
