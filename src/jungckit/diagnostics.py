"""Limit estimation, rate measurement and sequence-equivalence checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .aitken import accelerate_sequence
from .errors import LengthMismatchError, NotConvergingError, SequenceTooShortError
from .model import IterationTrace, Vector, exact_row_norms, unoverflowed

#: a final difference below this relative scale counts as numerically settled
SETTLE_SCALE = 1e-10
#: error norms below this relative scale are noise; no ratios reported there
RATIO_FLOOR_SCALE = 1e-13


@dataclass(frozen=True)
class LimitEstimate:
    value: Vector
    method: str  # "last-term" | "extrapolation"


def _as_rows(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def estimate_limit(seq: Sequence[Vector] | np.ndarray) -> LimitEstimate:
    """Estimate the limit of a convergent sequence of vectors.

    A sequence whose final difference is negligible (1e-10 relative) is
    numerically settled and the last term is the estimate; otherwise the
    delta-squared extrapolation of the last three terms is used.  Settled
    traces therefore never validate the correction with itself.  Raises
    ``NotConvergingError`` when the differences have not shrunk at all over
    the last ten steps.
    """
    arr = _as_rows(seq)
    n = arr.shape[0]
    if n < 5:
        raise SequenceTooShortError(f"limit estimation needs >= 5 terms, got {n}")
    with np.errstate(over="ignore"):
        steps = np.diff(arr, axis=0)
        diffs = unoverflowed(np.linalg.norm(steps, axis=1), steps)
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


def acceleration_ratio(
    raw: Sequence[Vector] | np.ndarray,
    accel: Sequence[Vector] | np.ndarray,
    limit: Vector | float,
    floor_scale: float = RATIO_FLOOR_SCALE,
) -> list[float]:
    """Error-contraction ratios ||accel_k - L|| / ||raw_k - L||.

    ``accel`` must be the two-term-lookahead correction of ``raw`` (length
    N-2, term k from window k..k+2).  Ratios stop at the first index where
    the raw error has already hit the limit floor; past it they would be
    quotient noise.
    """
    raw_arr = _as_rows(raw)
    acc_arr = _as_rows(accel)
    if acc_arr.shape[0] != raw_arr.shape[0] - 2:
        raise LengthMismatchError(
            f"corrected length {acc_arr.shape[0]} != raw length {raw_arr.shape[0]} - 2"
        )
    lim = np.atleast_1d(np.asarray(limit, dtype=float))
    floor = floor_scale * (1.0 + float(np.linalg.norm(lim)))
    count = acc_arr.shape[0]
    den = exact_row_norms(raw_arr[:count] - lim)
    at_floor = np.flatnonzero(den <= floor)
    stop = at_floor[0] if at_floor.size else count
    return (exact_row_norms(acc_arr[:stop] - lim) / den[:stop]).tolist()


def sequences_equivalent(a, b, tol: float) -> bool:
    """True when both sequences converge to the same limit within tol.

    Comparison scale is 1 + the larger limit norm, keeping the predicate
    symmetric in its arguments.
    """
    la = estimate_limit(a).value
    lb = estimate_limit(b).value
    scale = 1.0 + max(float(np.linalg.norm(la)), float(np.linalg.norm(lb)))
    return bool(np.linalg.norm(la - lb) <= tol * scale)


def limit_identity_residuals(trace: IterationTrace) -> np.ndarray:
    """Residual stream of the limit form of the step-coupling identity.

    Substitutes the estimated limits of both s-image sequences into
    [1 + a_n (b_n - 1)] L_z - (1 - a_n) L_y - a_n b_n t^n(y_n) and returns
    the norms per step.  For convergent traces the stream trends to zero;
    no verdict is attached because that conclusion needs the product
    a_n * b_n to stay away from zero.
    """
    l_z = estimate_limit(trace.sz).value
    l_y = estimate_limit(trace.sy).value
    a, b = trace.a_vals[:, None], trace.b_vals[:, None]
    r = (1.0 + a * (b - 1.0)) * l_z - (1.0 - a) * l_y - a * b * trace.ty
    return exact_row_norms(r)


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


def build_convergence_report(
    raw,
    accel,
    equivalence_tol: float = 1e-6,
) -> ConvergenceReport:
    """Assemble limit, per-step rates and correction ratios for a sequence pair."""
    raw_arr = _as_rows(raw)
    est = estimate_limit(raw_arr)
    lim = est.value
    errors = np.linalg.norm(raw_arr - lim[None, :], axis=1)
    floor = RATIO_FLOOR_SCALE * (1.0 + float(np.linalg.norm(lim)))
    above = errors[:-1] > floor
    step_ratios = (errors[1:][above] / errors[:-1][above]).tolist()
    accel_ratios = acceleration_ratio(raw_arr, accel, lim)
    equivalent = None
    notes = [f"limit via {est.method}"]
    try:
        equivalent = sequences_equivalent(raw_arr, accel, equivalence_tol)
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
