"""Vet scan_d5's candidate sweeps: certified counts and the known false violation.

    python3 bench/vet_sweeps.py

scan_d5 draws its sweeps from a fixed list of candidate sweep seeds
(``workloads.candidate_sweep_seeds``).  About 2% of K=5 sweeps report a
certificate violation that is a numerical defect of the program, not of the
certificate: the iterates fall to about 1e-162, ``np.linalg.norm`` squares
them into subnormal numbers, and ``||y_n|| <= c ||z_n||`` reads as violated
(bench/NOTES.md, open item 1).  This script runs every candidate sweep
once, with the benchmark's BLAS thread count, and writes to
bench/scan_sweeps.json the seeds that report any violation, which scan_d5
then leaves out, and every candidate's count of certified configs, by
which scan_d5 stratifies its rounds.  Re-run it whenever the program or the
candidate list changes.  It takes about 8 minutes on one core.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import program

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    program.pin_blas_threads()
    jk = program.load(BENCH_DIR.parent)
    from workloads import SWEEPS_PATH, ScanWorkload, candidate_sweep_seeds

    excluded, certified = [], []
    t0 = time.perf_counter()
    seeds = candidate_sweep_seeds()
    for n, seed in enumerate(seeds, 1):
        spec = jk.scan.ScanSpec(count=ScanWorkload.K, dim=ScanWorkload.DIM, steps=ScanWorkload.STEPS,
                                horizon=ScanWorkload.HORIZON, seed=seed)
        result = jk.scan.run_scan(spec)
        certified.append(result.certified_count)
        if result.violations:
            notes = [note for o in result.violations for note in o.notes if "VIOLATED" in note]
            excluded.append({"seed": seed, "violations": len(result.violations), "notes": notes})
            print(f"seed {seed}: {notes}", flush=True)
        if n % 50 == 0:
            print(f"{n} of {len(seeds)} sweeps, {len(excluded)} excluded, {time.perf_counter() - t0:.0f} s",
                  flush=True)
    SWEEPS_PATH.write_text(json.dumps({
        "why": "excluded: sweeps that report the false certificate violation of bench/NOTES.md, open item 1; "
               "certified: certified configs per candidate sweep, in candidate order",
        "candidates": len(seeds), "excluded": excluded, "certified": certified}) + "\n")
    print(f"{len(excluded)} of {len(seeds)} candidate sweeps excluded; certified counts "
          f"{sorted(Counter(certified).items())}; written to {SWEEPS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
