"""Gated componentwise delta-squared correction for vector sequences.

Given three consecutive terms s0, s1, s2 the corrected term is

    s0[i] - (s1[i] - s0[i])^2 / (s0[i] - 2*s1[i] + s2[i])

per component, exact on sequences of the form L + c*r^n.  A per-component
binary gate disables the correction wherever the second difference sits at
or below a relative floor (so the quotient can never blow up) or wherever
the caller's policy switches it off.

A settled trace ends in rows of zeros (see :mod:`jungckit.engine`), and
the corrector computes nothing there.  Only the windows that touch the
live prefix (:func:`jungckit.model.live_row_count`: the rows up to the
last one with a nonzero entry, where -0.0 counts as zero and NaN or inf
as nonzero) run through the formula.  Each later window (s0, s1, s2) is
+-0 in every entry, so its second difference is +-0, which is never above
the floor ``floor_scale * (1 + |s0|) > 0``: its gate is 0 whatever the
policy asks, and the corrected term is s0, the raw row, bit for bit
(-0.0 included).  Those rows are copied and their gates set to 0.  The
policy is still asked about them, so a gate list too short for the whole
sequence raises the same error.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SequenceTooShortError
from .model import GatePolicy, Vector, live_row_count

DEFAULT_FLOOR_SCALE = 1e-12

#: elements per block of windows, so temporaries stay bounded for any length
BLOCK_ELEMENTS = 8192


def row_blocks(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``count`` rows of ``width`` entries, about
    ``BLOCK_ELEMENTS`` entries a slice, so that a temporary taken over one
    is never larger than a block."""
    step = max(1, BLOCK_ELEMENTS // max(width, 1))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def denominator_floor(s0: Vector, floor_scale: float) -> Vector:
    """Relative floor under which a second difference counts as zero,
    ``floor_scale * (1 + |s0|)``, built in one array."""
    floor = np.abs(s0)
    floor += 1.0
    floor *= floor_scale
    return floor


def accelerate_sequence(
    raw: Sequence[Vector] | np.ndarray,
    policy: GatePolicy | None = None,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
) -> tuple[np.ndarray, np.ndarray]:
    """Correct a whole sequence; term k uses the window (k, k+1, k+2).

    Returns ``(accelerated, gates)`` with N-2 rows each: the corrected
    terms and the per-component gates actually applied, one ``int8`` byte
    per component.  A gate is 1 only where the policy asks for the
    correction, the second difference clears the floor (the floor always
    wins) and the corrected value is finite;
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
    gates = np.empty((n - 2, d), dtype=np.int8)
    # windows past the live prefix hold only zeros (module docstring)
    live = min(live_row_count(arr), n - 2)
    for block in row_blocks(live, d):
        lo, hi = block.start, block.stop
        window = arr[lo:hi + 2]
        if not np.all(np.isfinite(window)):
            raise NonFiniteError("sequence has non-finite entries")
        s0, s1, s2 = window[:-2], window[1:-1], window[2:]
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = s1 - s0
            d2 = s0 - 2.0 * s1 + s2
        # the gate before the quotient, so that their temporaries are never held together
        gate = policy.gates(lo, d2) & (np.abs(d2) > denominator_floor(s0, floor_scale))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            corrected = s0 - d1 * d1 / d2
        finite = np.isfinite(corrected)
        if not finite.all():
            # past the floor, d1 * d1 overflows above about 1.3e154: divide first there
            lost = gate & ~finite
            with np.errstate(over="ignore", invalid="ignore"):
                corrected[lost] = s0[lost] - d1[lost] * (d1[lost] / d2[lost])
            finite[lost] = np.isfinite(corrected[lost])
        gate &= finite
        out = accel[block]
        np.copyto(out, s0)
        np.copyto(out, corrected, where=gate)
        gates[block] = gate
    if live < n - 2:
        # the policy is still asked about the zero windows (with no columns),
        # so a gate list too short for them raises as when they are computed
        policy.gates(live, np.empty((n - 2 - live, 0)))
        accel[live:] = arr[live:n - 2]
        gates[live:] = 0
    return accel, gates
