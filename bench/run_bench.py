"""jungckit benchmark: one workload per call, the result as the last stdout line.

    python3 bench/run_bench.py --workload scan_d5 --seed 1 --seconds 25 --trace 0

Workloads are described in bench/NOTES.md.  Every run starts with a memory
pass, which runs the workload's memory inputs once each under tracemalloc.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in fresh
interpreters, ``SETUP_PROBES`` of them: half before the memory pass and half
after the timed loop, so that the median spans the run.  The timed loop runs
untraced operations back to back, one client in a closed loop, until
``--seconds`` have passed and a whole round is done.  The timed metrics are
scaled to a reference speed by the SpeedProbe run between the ops; the
unscaled values are printed and recorded beside them.

``--trace 1`` measures the per-layer metrics.  It alternates untraced and
traced blocks on the same inputs for ``--seconds``; the traced blocks wrap
every layer (bench/tracing.py).  It reports calls and counts over the first
block, busy and self seconds as the median over blocks, and the tracing
overhead.

The last line is {"correct", "attempted", "failed", "metrics"}.  The full
record, with the environment, goes to bench/.work/<workload>/result-*.json.
The run exits 2 without a result when the checkout has no jungckit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 12
#: op seconds per speed-probe sample, and the probe's time at the reference speed
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.002
#: the first lines of failure reasons that a run prints
SHOWN_FAILURES = 10
#: per-layer values that are printed but not in BENCHMARK.json: op.calls is the
#: block size, trace.overhead_share measures the benchmark itself, and the
#: other counts are 0 whenever the ops pass their checks
PRINTED_ONLY = ("op.calls", "trace.overhead_share", "engine.truncated", "scan.violations",
                "cli.checks_failed")


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def blas_threads_in_use():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def environment(root: Path, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": program.BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it, and its rank.

    Below 20 samples that percentile would lie under the median (with 11
    samples it is the minimum), so the maximum is reported, as percentile
    100.  dense_d300 gets 6-7 ops a run and always reports its maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_one(jk, workload, idx: int):
    """Run one operation; returns (result, error, seconds)."""
    t0 = time.perf_counter()
    try:
        result, error = workload.run_op(jk, idx), None
    except Exception as exc:  # an operation that raises is a failed operation
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def setup_times(workload_name: str, seed: int, workdir: Path, root: Path, count: int) -> list:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload_name,
             "--seed", str(seed), "--workdir", str(workdir / "probe")],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def memory_pass(jk, workload, ledger) -> tuple:
    """Run each memory input once under tracemalloc; returns (probe, op peaks)."""
    from tracing import PeakProbe

    probe = PeakProbe()
    peaks = []
    for idx in workload.memory_ops:
        with probe.measure_op():
            result, error, _ = run_one(jk, workload, idx)
        peaks.append(probe.op_peak)
        ledger.record(idx, result, error)
        del result
    return probe, peaks


class SpeedProbe:
    """A fixed piece of the benchmark's own work that tracks the machine's speed.

    The machine's speed drifts by up to 1.5x over minutes and switches
    within seconds (bench/NOTES.md).  The probe mixes interpreter work and
    small BLAS products; the timed loop runs it after every op, once per
    started PROBE_EVERY_S of the op's time, so that its samples spread
    evenly over the loop.  Their mean, not their median, measures the
    run's speed: the speed is bimodal, and a median jumps between the modes.
    """

    def __init__(self, np):
        self.matrix = np.random.default_rng(0).normal(size=(60, 60))
        self.samples: list = []

    def run(self, op_seconds: float) -> float:
        """Sample after an op of ``op_seconds``; returns the seconds spent."""
        spent = 0.0
        for _ in range(1 + int(op_seconds / PROBE_EVERY_S)):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i * i
            for _ in range(20):
                self.matrix @ self.matrix
            self.samples.append(time.perf_counter() - t0)
            spent += self.samples[-1]
        return spent


def timed_loop(jk, workload, ledger, seconds: float, probe: SpeedProbe) -> dict:
    latencies, completed, i, probe_s = [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        idx = workload.schedule(i)
        result, error, dt = run_one(jk, workload, idx)
        i += 1
        latencies.append(dt)
        ledger.record(idx, result, error)
        completed += error is None
        del result
        probe_s += probe.run(dt)
        if i % workload.round_len == 0 and time.perf_counter() - start >= seconds:
            break
    return {"wall_s": time.perf_counter() - start - probe_s, "latencies": latencies, "completed": completed}


def end_to_end(jk, workload, ledger, args, root, workdir, np) -> tuple[dict, dict]:
    clock = [time.perf_counter()]
    setup = setup_times(args.workload, args.seed, workdir, root, SETUP_PROBES // 2)
    clock.append(time.perf_counter())
    workload.build(jk)
    _, peaks = memory_pass(jk, workload, ledger)
    clock.append(time.perf_counter())
    probe = SpeedProbe(np)
    loop = timed_loop(jk, workload, ledger, args.seconds, probe)
    clock.append(time.perf_counter())
    setup += setup_times(args.workload, args.seed, workdir, root, SETUP_PROBES - SETUP_PROBES // 2)
    clock.append(time.perf_counter())
    lat_ms = [x * 1e3 for x in loop["latencies"]]
    tail_ms, tail_pct = tail(lat_ms)
    q_lat = quartiles(lat_ms)
    q_setup = quartiles(setup)
    raw = {
        "ops_per_s": loop["completed"] / loop["wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setup),
    }
    # times are scaled to the reference speed; slow = machine time per reference time
    slow = statistics.fmean(probe.samples) / PROBE_REF_S
    metrics = {
        "ops_per_s": {"value": raw["ops_per_s"] * slow, "unit": "op/s"},
        "op_p50_ms": {"value": raw["op_p50_ms"] / slow, "unit": "ms"},
        "op_tail_ms": {"value": raw["op_tail_ms"] / slow, "unit": "ms"},
        "setup_s": {"value": raw["setup_s"] / slow, "unit": "s"},
        "peak_mem_mb": {"value": max(peaks) / 1e6, "unit": "MB"},
    }
    q_probe = quartiles(probe.samples)
    detail = {
        "unscaled": raw, "slowdown": slow, "speed_probe_samples": len(probe.samples),
        "speed_probe_ms_quartiles": [q * 1e3 for q in q_probe],
        "ops": len(lat_ms), "completed": loop["completed"], "wall_s": loop["wall_s"],
        "op_ms_quartiles": q_lat, "tail_percentile": tail_pct,
        "setup_probes_s": setup, "setup_s_quartiles": q_setup,
        "memory_pass_peaks_mb": [p / 1e6 for p in peaks],
        "phase_s": dict(zip(("setup_probes_before", "memory_pass", "timed_loop", "setup_probes_after"),
                            (b - a for a, b in zip(clock, clock[1:])))),
        "fail_share": ledger.failed / ledger.attempted,
    }

    def show(name, unit, extra):
        return f"{name:12s} {metrics[name]['value']:10.6g} {unit:5s} (unscaled {raw[name]:.6g}; {extra})"

    notes = [
        f"speed probe: mean {slow * PROBE_REF_S * 1e3:.4g} ms over {len(probe.samples)} samples (quartiles "
        f"{q_probe[0] * 1e3:.4g} / {q_probe[2] * 1e3:.4g} ms), {PROBE_REF_S * 1e3:g} ms at the reference "
        f"speed; times below are divided, and ops_per_s multiplied, by {slow:.4f}",
        show("ops_per_s", "op/s", f"{loop['completed']} ops returned in {loop['wall_s']:.3f} s"),
        show("op_p50_ms", "ms", f"n={len(lat_ms)}, quartiles {q_lat[0]:.4g} / {q_lat[2]:.4g} ms"),
        show("op_tail_ms", "ms", f"p{tail_pct:.1f}, n={len(lat_ms)}"),
        show("setup_s", "s", f"median of {len(setup)} fresh interpreters, quartiles "
                             f"{q_setup[0]:.4g} / {q_setup[2]:.4g} s"),
        f"{'peak_mem_mb':12s} {metrics['peak_mem_mb']['value']:10.6g} MB    (tracemalloc, memory pass of "
        f"{len(peaks)} op(s))",
        f"{'fail_share':12s} {detail['fail_share']:10.6g} ratio (failed {ledger.failed} of {ledger.attempted} "
        "ops; carried as 'failed' and 'attempted' in the result line)",
    ]
    return metrics, {"detail": detail, "notes": notes}


def layer_metrics(jk, workload, ledger, args, workdir) -> tuple[dict, dict]:
    from tracing import COUNTERS, LAYERS, OP, PEAK_LAYERS, Tracer

    workload.build(jk)
    probe, _ = memory_pass(jk, workload, ledger)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    block = 0
    start = time.perf_counter()
    while True:
        inputs = [workload.schedule(block * workload.trace_block + k) for k in range(workload.trace_block)]
        for idx in inputs:
            result, error, dt = run_one(jk, workload, idx)
            untraced_s += dt
            ledger.record(idx, result, error)
            del result
        tracer.block = block
        with tracer.installed():
            for idx in inputs:
                with tracer.op():
                    result, error, dt = run_one(jk, workload, idx)
                traced_s += dt
                outcome = ledger.record(idx, result, error)
                tracer.counts[block].update(outcome.counts or {})
                del result
        block += 1
        if time.perf_counter() - start >= args.seconds:
            break

    per_block = [tracer.block_times(b) for b in range(block)]
    counts = tracer.counts[0]
    metrics = {}
    for name in [OP] + [layer[0] for layer in LAYERS]:
        metrics[f"{name}.calls"] = {"value": per_block[0]["calls"][name], "unit": "count"}
        metrics[f"{name}.busy_s"] = {"value": statistics.median(b["busy"][name] for b in per_block), "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": statistics.median(b["self"][name] for b in per_block), "unit": "s"}
    for name in COUNTERS:
        metrics[name] = {"value": counts[name], "unit": "bytes" if name == "cli.csv_bytes" else "count"}
    metrics["aitken.gate_on_share"] = {
        "value": counts["aitken.gates_on"] / counts["aitken.components"] if counts["aitken.components"] else 0.0,
        "unit": "ratio"}
    metrics["scan.certified_share"] = {
        "value": counts["scan.certified"] / counts["scan.configs"] if counts["scan.configs"] else 0.0,
        "unit": "ratio"}
    for name, _ in PEAK_LAYERS:
        metrics[f"{name}.peak_mb"] = {"value": probe.layer_peak[name] / 1e6, "unit": "MB"}
    metrics["trace.overhead_share"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
    printed_only = {name: metrics.pop(name)["value"] for name in PRINTED_ONLY}

    spans_path = workdir / f"spans-seed{args.seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    hook_errors = {k: v for k, v in counts.items() if k.endswith(".hook_errors")}
    op_busy = metrics[f"{OP}.busy_s"]["value"]
    ranked = sorted(((metrics[f"{n}.self_s"]["value"], n) for n in [OP] + [la[0] for la in LAYERS]), reverse=True)
    notes = [
        f"traced blocks: {block} of {workload.trace_block} op(s); calls and counts are over block 0, "
        "busy_s and self_s are medians over blocks, per block",
        f"tracing overhead (trace.overhead_share): {printed_only['trace.overhead_share']:.4f} "
        f"(traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s on the same inputs)",
        "waiting time is not measured: one process, one thread, so no layer waits on another",
        "also measured, not in BENCHMARK.json: "
        + ", ".join(f"{name}={value:.6g}" for name, value in printed_only.items()),
        f"missing layers: {', '.join(tracer.missing) or 'none'}",
        f"counter hook errors: {hook_errors or 'none'}",
        f"spans written to {spans_path}",
        "largest self times per block (share of op busy time):",
    ] + [f"  {n:40s} {v:10.4f} s  {v / op_busy if op_busy else 0.0:6.1%}" for v, n in ranked[:8]]
    return metrics, {"detail": {"blocks": block, "traced_s": traced_s, "untraced_s": untraced_s,
                                "printed_only": printed_only, "missing_layers": tracer.missing,
                                "hook_errors": hook_errors},
                     "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jungckit benchmark (see bench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=("scan_d5", "dense_d300", "cli_configs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = BENCH_DIR.parent

    program.pin_blas_threads()
    try:
        jk = program.load(root)
    except program.ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import numpy as np  # after the BLAS thread count is pinned
    from workloads import WORKLOADS, Ledger

    workdir = BENCH_DIR / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, root)
    ledger = Ledger(workload)
    env = environment(root, np)
    print(f"jungckit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    print("inputs: " + json.dumps(workload.sizes()))

    # known program defects are reproduced once, outside the ops and their checks,
    # so that a fix shows even though the workloads' inputs avoid them
    try:
        defects = workload.known_defects(jk)
    except Exception as exc:  # a reproduction that no longer runs is reported, not fatal
        defects = [f"reproduction raised {type(exc).__name__}: {exc}"]
    print("known defects (reproductions, not ops): " + (" | ".join(defects) or "none reproduce"))

    if args.trace:
        metrics, extra = layer_metrics(jk, workload, ledger, args, workdir)
    else:
        metrics, extra = end_to_end(jk, workload, ledger, args, root, workdir, np)
    for line in extra["notes"]:
        print(line)
    for reason in ledger.reasons[:SHOWN_FAILURES]:
        print(f"FAILED {reason}")

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "inputs": workload.sizes(), **extra, "known_defects": defects,
              "failures": ledger.reasons, "tracebacks": ledger.tracebacks, "result": result}
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
