"""Time one workload's set-up in a fresh interpreter.

Set-up is ``import jungckit`` (numpy and PyYAML included) plus building the
workload's program-side inputs, e.g. ``make_operator_pair`` with its SVDs
for dense_d300.  Generating the inputs is the benchmark's own work and is
left out.  Prints one JSON line: {"setup_s": seconds}.

    python3 bench/setup_probe.py --workload dense_d300 --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    program.pin_blas_threads()

    t0 = time.perf_counter()
    jk = program.load(root)
    t1 = time.perf_counter()
    from workloads import WORKLOADS  # benchmark code; numpy is already loaded

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), root)
    t2 = time.perf_counter()
    workload.build(jk)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


if __name__ == "__main__":
    main()
