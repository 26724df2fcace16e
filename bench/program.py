"""Locate and import the jungckit sources of the checkout being measured.

Kept free of numpy so that callers can pin the BLAS thread count, and the
set-up probe can start its clock, before numpy is first imported.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

#: jungckit modules the workloads' operations call
MODULES = ("model", "engine", "stability", "diagnostics", "scan", "cli")

#: BLAS threads used by every run; at most ``nproc`` (2 on the machine it was tuned on).
#: One thread keeps d=300 timings steady: with two, run() was only ~10%
#: faster and power_norms' SVDs no faster at all.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no jungckit sources to measure."""


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def load(root: Path) -> SimpleNamespace:
    """Import jungckit from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "jungckit" / "__init__.py").is_file():
        raise ProgramMissing(f"no jungckit sources under {src}")
    sys.path.insert(0, str(src))
    return SimpleNamespace(**{m: importlib.import_module(f"jungckit.{m}") for m in MODULES})
