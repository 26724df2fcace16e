"""Limit estimation, rate measurement and sequence-equivalence checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .aitken import accelerate_sequence, as_rows, row_blocks
from .errors import DimensionMismatchError, LengthMismatchError, NotConvergingError, SequenceTooShortError
from .model import Vector, exact_row_norms

#: a final difference below this relative scale counts as numerically settled
SETTLE_SCALE = 1e-10
#: error norms below this relative scale are noise; no ratios reported there
RATIO_FLOOR_SCALE = 1e-13
#: limits of a raw and a corrected sequence this close (relative) are the same
EQUIVALENCE_TOL = 1e-6


@dataclass(frozen=True)
class LimitEstimate:
    value: Vector
    method: str  # "last-term" | "extrapolation"


def estimate_limit(seq: Sequence[Vector] | np.ndarray) -> LimitEstimate:
    """Estimate the limit of a convergent sequence of vectors.

    A sequence whose final difference is negligible (1e-10 relative) is
    numerically settled and the last term is the estimate; otherwise the
    delta-squared extrapolation of the last three terms is used.  Settled
    traces therefore never validate the correction with itself.  Raises
    ``NotConvergingError`` when the differences have not shrunk at all over
    the last ten steps.
    """
    arr = as_rows(seq)
    n = arr.shape[0]
    if n < 5:
        raise SequenceTooShortError(f"limit estimation needs >= 5 terms, got {n}")
    with np.errstate(over="ignore"):
        # the last ten differences are all that is read
        diffs = exact_row_norms(np.diff(arr[-11:], axis=0))
    scale = 1.0 + float(exact_row_norms(arr[-1:])[0])
    settled = diffs[-1] <= SETTLE_SCALE * scale

    if len(diffs) >= 10 and not settled:
        last = diffs[-10:]
        if np.all(last[1:] >= last[:-1] * (1.0 - 1e-12)):
            raise NotConvergingError("differences non-shrinking over the last 10 steps")

    if settled:
        return LimitEstimate(value=arr[-1].copy(), method="last-term")
    accel, _ = accelerate_sequence(arr[-3:])
    return LimitEstimate(value=accel[0], method="extrapolation")


def _ratio_floor(limit: np.ndarray) -> float:
    """Error norms at or below this are noise around ``limit``."""
    return RATIO_FLOOR_SCALE * (1.0 + float(exact_row_norms(limit[None])[0]))


def acceleration_ratio(
    raw: Sequence[Vector] | np.ndarray,
    accel: Sequence[Vector] | np.ndarray,
    limit: Vector | float,
) -> list[float]:
    """Error-contraction ratios ||accel_k - L|| / ||raw_k - L||.

    ``accel`` must be the two-term-lookahead correction of ``raw`` (length
    N-2, term k from window k..k+2).  Ratios stop at the first index where
    the raw error has already hit the limit floor; past it they would be
    quotient noise, and no norm is taken there.  Raises
    ``DimensionMismatchError`` unless the rows of ``accel`` (if any) are as
    wide as those of ``raw``, and ``limit`` is a number or a vector as wide.
    """
    raw_arr = as_rows(raw)
    acc_arr = as_rows(accel)
    if acc_arr.shape[0] != raw_arr.shape[0] - 2:
        raise LengthMismatchError(
            f"corrected length {acc_arr.shape[0]} != raw length {raw_arr.shape[0]} - 2"
        )
    if acc_arr.shape[0] and acc_arr.shape[1] != raw_arr.shape[1]:
        raise DimensionMismatchError(f"corrected rows of width {acc_arr.shape[1]} for raw rows of width "
                                     f"{raw_arr.shape[1]}")
    lim = np.atleast_1d(np.asarray(limit, dtype=float))
    if lim.shape not in ((1,), raw_arr.shape[1:]):
        raise DimensionMismatchError(f"limit of shape {lim.shape} for rows of width {raw_arr.shape[1]}")
    floor = _ratio_floor(lim)
    ratios: list[float] = []
    for block in row_blocks(*acc_arr.shape):
        den = exact_row_norms(raw_arr[block] - lim)
        at_floor = np.flatnonzero(den <= floor)
        stop = at_floor[0] if at_floor.size else len(den)
        ratios += (exact_row_norms(acc_arr[block][:stop] - lim) / den[:stop]).tolist()
        if at_floor.size:
            break
    return ratios


def sequences_equivalent(a, b, tol: float) -> bool:
    """True when both sequences converge to the same limit within tol.

    Comparison scale is 1 + the larger limit norm, keeping the predicate
    symmetric in its arguments.
    """
    la = estimate_limit(a).value
    lb = estimate_limit(b).value
    norm_a, norm_b, gap = exact_row_norms(np.stack([la, lb, la - lb]))
    return bool(gap <= tol * (1.0 + max(norm_a, norm_b)))


@dataclass
class ConvergenceReport:
    """Rates and limits for one raw/corrected sequence pair."""

    estimated_limit: Vector
    limit_method: str
    error_norms: np.ndarray
    step_ratios: list
    accel_ratios: list
    equivalent: Optional[bool] = None
    notes: list = field(default_factory=list)


def build_convergence_report(raw, accel) -> ConvergenceReport:
    """Assemble limit, per-step rates and correction ratios for a sequence pair.

    Error norms are taken as ``exact_row_norms`` takes them, so a finite
    row whose squares overflow keeps a finite error.  ``equivalent`` is None,
    with the reason as the last note, when either limit cannot be estimated.
    """
    raw_arr = as_rows(raw)
    est = estimate_limit(raw_arr)
    lim = est.value
    errors = np.empty(raw_arr.shape[0])
    for block in row_blocks(*raw_arr.shape):
        errors[block] = exact_row_norms(raw_arr[block] - lim)
    floor = _ratio_floor(lim)
    above = errors[:-1] > floor
    step_ratios = (errors[1:][above] / errors[:-1][above]).tolist()
    accel_ratios = acceleration_ratio(raw_arr, accel, lim)
    equivalent = None
    notes = [f"limit via {est.method}"]
    try:
        equivalent = sequences_equivalent(raw_arr, accel, EQUIVALENCE_TOL)
    except (NotConvergingError, SequenceTooShortError) as exc:
        notes.append(f"equivalence not decidable: {exc}")
    return ConvergenceReport(
        estimated_limit=lim,
        limit_method=est.method,
        error_norms=errors,
        step_ratios=step_ratios,
        accel_ratios=accel_ratios,
        equivalent=equivalent,
        notes=notes,
    )
