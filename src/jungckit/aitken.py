"""Gated componentwise delta-squared correction for vector sequences.

Given three consecutive terms s0, s1, s2 the corrected term is

    s0[i] - (s1[i] - s0[i])^2 / (s0[i] - 2*s1[i] + s2[i])

per component, exact on sequences of the form L + c*r^n.  A per-component
binary gate disables the correction wherever the second difference sits at
or below a relative floor (so the quotient can never blow up) or wherever
the caller's policy switches it off.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SequenceTooShortError
from .model import GatePolicy, Vector

DEFAULT_FLOOR_SCALE = 1e-12

#: elements per block of windows, so temporaries stay bounded for any length
BLOCK_ELEMENTS = 8192


def denominator_floor(s0: Vector, floor_scale: float) -> Vector:
    """Relative floor under which a second difference counts as zero."""
    return floor_scale * (1.0 + np.abs(s0))


def accelerate_sequence(
    raw: Sequence[Vector] | np.ndarray,
    policy: GatePolicy | None = None,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
) -> tuple[np.ndarray, np.ndarray]:
    """Correct a whole sequence; term k uses the window (k, k+1, k+2).

    Returns ``(accelerated, gates)`` with N-2 rows each: the corrected
    terms and the per-component gates actually applied.  A gate is 1 only
    where the policy asks for the correction, the second difference clears
    the floor (the floor always wins) and the corrected value is finite;
    where (s1-s0)^2 overflows it is s0 - d1 * (d1 / d2).  Gate-0 components
    are bit-identical copies of s0, so the output is always finite.
    Raises ``ValueError`` unless ``floor_scale > 0``.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    n = arr.shape[0]
    if n < 3:
        raise SequenceTooShortError(f"need at least 3 terms, got {n}")
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise DimensionMismatchError(f"terms must be non-empty 1-D vectors, got shape {arr.shape[1:]}")
    if not floor_scale > 0:  # NaN fails it too
        raise ValueError(f"floor_scale must be positive, got {floor_scale}")
    policy = policy or GatePolicy.always_on()

    d = arr.shape[1]
    accel = np.empty((n - 2, d))
    gates = np.empty((n - 2, d), dtype=np.int64)
    rows = max(1, BLOCK_ELEMENTS // d)
    for lo in range(0, n - 2, rows):
        hi = min(lo + rows, n - 2)
        window = arr[lo:hi + 2]
        if not np.all(np.isfinite(window)):
            raise NonFiniteError("sequence has non-finite entries")
        s0, s1, s2 = window[:-2], window[1:-1], window[2:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d1 = s1 - s0
            d2 = s0 - 2.0 * s1 + s2
            corrected = s0 - d1 * d1 / d2
        gate = policy.gates(lo, d2) & (np.abs(d2) > denominator_floor(s0, floor_scale))
        finite = np.isfinite(corrected)
        if not finite.all():
            # past the floor, d1 * d1 overflows above about 1.3e154: divide first there
            lost = gate & ~finite
            with np.errstate(over="ignore", invalid="ignore"):
                corrected[lost] = s0[lost] - d1[lost] * (d1[lost] / d2[lost])
            finite[lost] = np.isfinite(corrected[lost])
        gate &= finite
        accel[lo:hi] = np.where(gate, corrected, s0)
        gates[lo:hi] = gate
    return accel, gates
