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

``corrected_blocks`` gives the same corrected terms and gates one row
block at a time, from a sequence whose rows may be made on demand, so
neither the sequence nor its correction need be held whole.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError, NonFiniteError, SequenceTooShortError
from .model import GatePolicy, Vector, live_row_count

DEFAULT_FLOOR_SCALE = 1e-12

#: elements per block of windows, so temporaries stay bounded for any length
BLOCK_ELEMENTS = 8192


def block_rows(width: int) -> int:
    """The rows of a block of rows ``width`` entries wide: about
    ``BLOCK_ELEMENTS`` entries, and at least one row."""
    return max(1, BLOCK_ELEMENTS // max(width, 1))


def row_blocks(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``count`` rows of ``width`` entries,
    ``block_rows(width)`` rows a slice, so that a temporary taken over one
    is never larger than a block."""
    step = block_rows(width)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def as_rows(seq) -> np.ndarray:
    """A sequence of terms as a 2-D float array, one row a term; a sequence
    of numbers becomes one column."""
    arr = np.asarray(seq, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


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
    Raises ``InvalidArgumentError`` unless ``floor_scale > 0``.
    """
    arr = as_rows(raw)
    _check_sequence(arr.shape, floor_scale)
    policy = policy or GatePolicy.always_on()

    n, d = arr.shape
    accel = np.empty((n - 2, d))
    gates = np.empty((n - 2, d), dtype=np.int8)
    # windows past the live prefix hold only zeros (module docstring)
    live = min(live_row_count(arr), n - 2)
    for block in row_blocks(live, d):
        _correct(arr[block.start:block.stop + 2], block.start, policy, floor_scale, accel[block], gates[block])
    if live < n - 2:
        # the policy is still asked about the zero windows (with no columns),
        # so a gate list too short for them raises as when they are computed
        policy.gates(live, np.empty((n - 2 - live, 0)))
        accel[live:] = arr[live:n - 2]
        gates[live:] = 0
    return accel, gates


def corrected_blocks(
    terms, policy: GatePolicy, floor_scale: float, rows: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Correct a sequence one row block at a time, as ``accelerate_sequence``
    corrects it whole.

    ``terms`` has a ``shape`` ``(N, d)`` and gives its rows ``lo..hi`` as
    ``terms[lo:hi]``: a 2-D array, or a source that makes its rows on
    demand, so that no block needs the whole sequence.  Yields ``(window,
    accelerated, gates)`` for each block of ``rows`` windows (``rows >=
    1``): the block's raw rows with the two rows after them, and the
    block's corrected terms and gates, bit for bit those of
    ``accelerate_sequence``, whose formula treats each window on its own.
    Each block asks the policy at its own indices.  The windows past a zero
    tail go through the formula, which gives them what
    ``accelerate_sequence`` copies there.  The checks of
    ``accelerate_sequence``, and that of a gate list long enough for every
    window, run on the call, before any block is made; a non-finite entry
    raises ``NonFiniteError`` at its block.
    """
    _check_sequence(terms.shape, floor_scale)
    n, d = terms.shape
    policy.gates(0, np.empty((n - 2, 0)))  # a gate list too short raises here, as the whole corrector does

    def blocks():
        for lo in range(0, n - 2, rows):
            hi = min(lo + rows, n - 2)
            window = terms[lo:hi + 2]
            accel, gates = np.empty((hi - lo, d)), np.empty((hi - lo, d), dtype=np.int8)
            _correct(window, lo, policy, floor_scale, accel, gates)
            yield window, accel, gates
            del window, accel, gates  # let go before the next block is made

    return blocks()


def _check_sequence(shape: tuple, floor_scale: float) -> None:
    """Refuse a sequence of ``shape`` (rows, entries) that cannot be
    corrected, or a ``floor_scale`` that is not positive."""
    n = shape[0]
    if n < 3:
        raise SequenceTooShortError(f"need at least 3 terms, got {n}")
    if len(shape) != 2 or shape[1] < 1:
        raise DimensionMismatchError(f"terms must be non-empty 1-D vectors, got shape {shape[1:]}")
    if not floor_scale > 0:  # NaN fails it too
        raise InvalidArgumentError(f"floor_scale must be positive, got {floor_scale}")


def _correct(window: np.ndarray, start: int, policy: GatePolicy, floor_scale: float,
             out: np.ndarray, gates: np.ndarray) -> None:
    """Write the corrected terms of the windows of ``window`` (rows k, k+1,
    k+2 for k = 0..len(window)-3) into ``out`` and their gates into
    ``gates``; ``start`` is the index of the window's first row in its
    sequence, which is where the policy is asked."""
    if not np.all(np.isfinite(window)):
        raise NonFiniteError("sequence has non-finite entries")
    s0, s1, s2 = window[:-2], window[1:-1], window[2:]
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = s1 - s0
        d2 = s0 - 2.0 * s1 + s2
    # the gate before the quotient, so that their temporaries are never held together
    gate = policy.gates(start, d2) & (np.abs(d2) > denominator_floor(s0, floor_scale))
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
    np.copyto(out, s0)
    np.copyto(out, corrected, where=gate)
    gates[...] = gate
