"""Check that two jungckit source trees give byte-identical CLI outputs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a tree's ``src`` directory.  The script runs 19 inputs
through ``python -m jungckit.cli``, once with each tree on ``PYTHONPATH``:

- the six configs in ``configs/``;
- the four inputs that ``bench/workloads.py``'s ``CliWorkload`` generates
  (two jungck runs, an aitken-only pass and a venter recursion) for each
  of seeds 1-3;
- the jungck config with minimum modulus ``m = 1.001`` that
  ``CliWorkload.known_defects`` reproduces (rng seed 2).

The generated inputs and every output go to a temporary directory, so
nothing is written under ``bench/``.  For each input it compares the exit
code and the SHA-256 of ``trace.csv`` and ``report.txt``, prints the inputs
that differ, and exits 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing the workloads leaves no __pycache__ under bench/
sys.path.insert(0, str(ROOT / "bench"))
from workloads import SHIPPED, CliWorkload  # noqa: E402

SEEDS = (1, 2, 3)
OUTPUTS = ("trace.csv", "report.txt")


def gate_inputs(workdir: Path) -> dict[str, Path]:
    """The 19 inputs by name, the generated ones written under ``workdir``."""
    inputs = {path.name: path for path in sorted((ROOT / "configs").glob("*.yaml"))}
    for seed in SEEDS:
        workload = CliWorkload(seed, workdir / f"seed{seed}", ROOT)
        for path in workload.paths[len(SHIPPED):]:
            inputs[f"seed{seed}/{path.name}"] = path
    path = workdir / "m1.001.yaml"
    path.write_text(yaml.safe_dump(workload._jungck(np.random.default_rng(2), m=1.001), sort_keys=False))
    inputs[path.name] = path
    return inputs


def outcome(src: Path, config: Path, out: Path) -> tuple:
    """The exit code of one CLI run and the SHA-256 of each output (None when missing)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = subprocess.run([sys.executable, "-m", "jungckit.cli", "--config", str(config), "--output", str(out),
                           "--quiet"], cwd=out.parent, env=env, capture_output=True).returncode
    return (code, *(hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else None
                    for name in OUTPUTS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the src directory of the tree compared against")
    parser.add_argument("change_src", type=Path, help="the src directory of the changed tree")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "jungckit" / "cli.py").is_file():
            parser.error(f"{src} holds no jungckit/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = gate_inputs(work / "inputs")
        differ = []
        for i, (name, config) in enumerate(inputs.items()):
            runs = []
            for side, src in (("parent", args.parent_src), ("change", args.change_src)):
                out = work / side / str(i)
                out.parent.mkdir(parents=True, exist_ok=True)
                runs.append(outcome(src.resolve(), config, out))
            if runs[0] != runs[1]:
                differ.append(name)
                labels = ("exit code", *OUTPUTS)
                changed = ", ".join(label for label, a, b in zip(labels, *runs) if a != b)
                print(f"DIFFERS {name}: {changed} (exit {runs[0][0]} -> {runs[1][0]})")
    print(f"{len(inputs) - len(differ)} of {len(inputs)} inputs give the same exit code, "
          f"{' and '.join(OUTPUTS)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
