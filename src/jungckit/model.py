"""Domain types shared by the iteration engine, verifiers and the CLI.

State vectors are plain 1-D float64 numpy arrays validated through
:func:`as_state`.  Operators wrap either a dense square matrix or a user
callback; an :class:`OperatorPair` couples the solved-against map ``s``
with the iterated map ``t`` and caches the norm data the stability
certificates need.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteError,
    ScheduleViolationError,
    SingularOperatorError,
    SolveError,
)

log = logging.getLogger(__name__)

Vector = np.ndarray


def as_state(entries: Sequence[float] | float, dim: int | None = None) -> Vector:
    """Validate ``entries`` as a finite 1-D float64 vector and return a copy.

    Scalars become 1-vectors.  Raises ``DimensionMismatchError`` for the
    wrong shape and ``NonFiniteError`` for NaN/Inf entries.
    """
    v = np.array(entries, dtype=float, copy=True)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"state must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("state vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


class Operator:
    """A map on R^d: either a dense square matrix or a user callback.

    Matrix operators expose ``matrix`` and support norm queries; callback
    operators only guarantee dimension-preserving evaluation.
    """

    __slots__ = ("matrix", "func", "dim")

    def __init__(self, matrix: Optional[np.ndarray], func: Optional[Callable], dim: int):
        self.matrix = matrix
        self.func = func
        self.dim = dim

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence[float]] | np.ndarray) -> "Operator":
        a = np.array(m, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatchError(f"operator matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("operator matrix has non-finite entries")
        return cls(a, None, a.shape[0])

    @classmethod
    def from_callable(cls, func: Callable[[Vector], Vector], dim: int) -> "Operator":
        if dim < 1:
            raise DimensionMismatchError("operator dimension must be >= 1")
        return cls(None, func, dim)

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls.from_matrix(np.eye(dim))

    @classmethod
    def scaled_identity(cls, scale: float, dim: int) -> "Operator":
        return cls.from_matrix(scale * np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "Operator":
        return cls.from_matrix(np.zeros((dim, dim)))

    @property
    def is_linear(self) -> bool:
        return self.matrix is not None

    def __call__(self, x: Vector) -> Vector:
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"operator expects dimension {self.dim}, got {x.shape}")
        if self.matrix is not None:
            return self.matrix @ x
        out = np.asarray(self.func(x), dtype=float)
        if out.shape != (self.dim,):
            raise DimensionMismatchError("user map changed the dimension")
        return out

    def __repr__(self) -> str:
        kind = "matrix" if self.is_linear else "callable"
        return f"Operator({kind}, dim={self.dim})"


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; +inf when the matrix is not finite."""
    if not np.all(np.isfinite(m)):
        return math.inf
    return float(np.linalg.norm(m, 2))


def min_modulus(m: np.ndarray) -> float:
    """Smallest singular value: inf ||Mx||/||x|| over nonzero x, matrix case."""
    return float(np.linalg.svd(m, compute_uv=False)[-1])


@dataclass(frozen=True)
class OperatorPair:
    """The coupled maps of the two-map scheme.

    ``s`` is solved against at every step (must be injective on the working
    space); ``t`` is the map whose powers drive the update.  Norm data is
    cached at construction for matrix operators and ``None`` otherwise.
    """

    s: Operator
    t: Operator
    s_solve: Callable[[Vector], Vector]
    solve_tol: float
    s_min_modulus: Optional[float] = None
    s_norm: Optional[float] = None
    t_norm: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.s.dim

    @property
    def norms_available(self) -> bool:
        return self.s_min_modulus is not None and self.t_norm is not None

    def solve(self, v: Vector) -> Vector:
        """Solve ``s(u) = v`` for ``u``; wraps any failure in SolveError."""
        try:
            u = np.asarray(self.s_solve(v), dtype=float)
        except Exception as exc:  # user solvers can raise anything
            raise SolveError(f"solve callback failed: {exc}") from exc
        if u.shape != (self.dim,):
            raise SolveError("solve callback changed the dimension")
        if not np.all(np.isfinite(u)):
            raise SolveError("solve produced non-finite values")
        return u


def make_operator_pair(
    s: Operator,
    t: Operator,
    tol: float = 1e-10,
    s_solve: Callable[[Vector], Vector] | None = None,
) -> OperatorPair:
    """Build an OperatorPair, caching ||t|| and the minimum modulus of ``s``.

    Raises ``SingularOperatorError`` when a matrix ``s`` has minimum modulus
    at or below ``tol`` and ``DimensionMismatchError`` on unequal dimensions.
    A callback ``s`` requires a user-supplied ``s_solve``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if s.dim != t.dim:
        raise DimensionMismatchError(f"maps live in different dimensions: {s.dim} vs {t.dim}")

    mu = s_nrm = t_nrm = None
    if s.is_linear:
        mu = min_modulus(s.matrix)
        if mu <= tol:
            raise SingularOperatorError(
                f"minimum modulus {mu:.3e} <= tol {tol:.3e}; the map is not safely invertible"
            )
        s_nrm = spectral_norm(s.matrix)
        if s_solve is None:
            mat = s.matrix
            s_solve = lambda v, _m=mat: np.linalg.solve(_m, v)
    elif s_solve is None:
        raise SolveError("a callback map needs a user-supplied s_solve")
    if t.is_linear:
        t_nrm = spectral_norm(t.matrix)

    return OperatorPair(
        s=s, t=t, s_solve=s_solve, solve_tol=tol,
        s_min_modulus=mu, s_norm=s_nrm, t_norm=t_nrm,
    )


SCHEDULE_FORMS = ("constant", "one-minus-inv", "inv", "inv-pow", "list")


@dataclass(frozen=True)
class Schedule:
    """Evaluable parameter sequence with a clamping range.

    Supported forms: ``constant`` c, ``one-minus-inv`` 1 - 1/(n+k),
    ``inv`` 1/(n+k), ``inv-pow`` 1/(n+k)^p, and explicit ``list`` values.
    Values falling outside ``clamp`` are clamped (and logged), never
    rejected; explicit lists raise past their length.
    """

    form: str
    c: float = 0.0
    k: int = 2
    p: float = 1.0
    values: tuple = ()
    clamp: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.form not in SCHEDULE_FORMS:
            raise ValueError(f"unknown schedule form {self.form!r}")
        lo, hi = self.clamp
        if math.isnan(lo) or math.isnan(hi) or not lo <= hi:
            raise ValueError(f"bad clamp range {self.clamp!r}")
        if self.form in ("one-minus-inv", "inv", "inv-pow") and self.k < 1:
            raise ValueError("rational schedules need k >= 1 so n=0 is evaluable")
        if not all(math.isfinite(v) for v in (self.c, self.p, *self.values)):
            raise ValueError("schedule parameters and values must be finite")

    @classmethod
    def constant(cls, c: float, clamp=(0.0, 1.0)) -> "Schedule":
        return cls(form="constant", c=c, clamp=clamp)

    @classmethod
    def one_minus_inv(cls, k: int = 2, clamp=(0.0, 1.0)) -> "Schedule":
        return cls(form="one-minus-inv", k=k, clamp=clamp)

    @classmethod
    def inv(cls, k: int = 2, clamp=(0.0, 1.0)) -> "Schedule":
        return cls(form="inv", k=k, clamp=clamp)

    @classmethod
    def inv_pow(cls, k: int = 2, p: float = 2.0, clamp=(0.0, 1.0)) -> "Schedule":
        return cls(form="inv-pow", k=k, p=p, clamp=clamp)

    @classmethod
    def from_values(cls, values: Iterable[float], clamp=(0.0, 1.0)) -> "Schedule":
        return cls(form="list", values=tuple(float(v) for v in values), clamp=clamp)

    def __call__(self, n: int) -> float:
        return schedule_eval(self, n)

    def array(self, count: int) -> np.ndarray:
        """Evaluate at n = 0..count-1."""
        return np.array([schedule_eval(self, n) for n in range(count)])

    def series_diverges(self) -> Optional[bool]:
        """Whether the partial sums of the schedule tend to +inf.

        Decided symbolically for the built-in families; ``None`` (unknown)
        for explicit lists.
        """
        if self.form == "constant":
            return self.c > 0
        if self.form == "one-minus-inv":
            return True  # terms tend to 1
        if self.form == "inv":
            return True  # harmonic tail
        if self.form == "inv-pow":
            return self.p <= 1
        return None


def schedule_eval(s: Schedule, n: int) -> float:
    """Evaluate a schedule at step ``n`` (deterministic, clamped)."""
    if n < 0:
        raise IndexOutOfRangeError("schedules are defined for n >= 0")
    if s.form == "constant":
        raw = s.c
    elif s.form == "one-minus-inv":
        raw = 1.0 - 1.0 / (n + s.k)
    elif s.form == "inv":
        raw = 1.0 / (n + s.k)
    elif s.form == "inv-pow":
        try:
            raw = 1.0 / float(n + s.k) ** s.p
        except (OverflowError, ZeroDivisionError) as exc:
            raise ScheduleViolationError(
                f"inv-pow schedule 1/(n+k)^p overflows in floating point at n={n} (k={s.k}, p={s.p!r}): {exc}"
            ) from exc
    else:
        if n >= len(s.values):
            raise IndexOutOfRangeError(f"explicit schedule has {len(s.values)} values, asked for n={n}")
        raw = s.values[n]
    lo, hi = s.clamp
    if not lo <= raw <= hi:
        clamped = min(hi, max(lo, raw))
        log.debug("schedule value %g at n=%d clamped into [%g, %g]", raw, n, lo, hi)
        return clamped
    return raw


GATE_MODES = ("always-on", "always-off", "threshold", "list")


@dataclass(frozen=True)
class GatePolicy:
    """Per-iteration switch for the delta-squared correction.

    The policy decides whether a correction is wanted; the caller still
    AND-s the result with the denominator floor, which always wins.
    ``threshold`` mode enables the correction only where the second
    difference magnitude exceeds ``tau``.
    """

    mode: str = "always-on"
    tau: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {self.mode!r}")
        if not self.tau >= 0:
            raise ValueError("gate threshold must be nonnegative")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("explicit gate values must be 0 or 1")

    @classmethod
    def always_on(cls) -> "GatePolicy":
        return cls(mode="always-on")

    @classmethod
    def always_off(cls) -> "GatePolicy":
        return cls(mode="always-off")

    @classmethod
    def threshold(cls, tau: float) -> "GatePolicy":
        return cls(mode="threshold", tau=tau)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "GatePolicy":
        return cls(mode="list", values=tuple(int(v) for v in values))

    @property
    def is_always_off(self) -> bool:
        return self.mode == "always-off" or (self.mode == "list" and all(v == 0 for v in self.values))

    def gates(self, start: int, d2: np.ndarray) -> np.ndarray:
        """Requested (pre-floor) gates for windows start, start+1, ...: one
        boolean row per row of the second differences ``d2``."""
        if self.mode == "always-on":
            return np.ones(d2.shape, dtype=bool)
        if self.mode == "always-off":
            return np.zeros(d2.shape, dtype=bool)
        if self.mode == "threshold":
            return np.abs(d2) > self.tau
        stop = start + d2.shape[0]
        if stop > len(self.values):
            raise IndexOutOfRangeError(
                f"explicit gate list has {len(self.values)} values, asked for index {max(start, len(self.values))}"
            )
        return np.broadcast_to(np.array(self.values[start:stop], dtype=bool)[:, None], d2.shape)


@dataclass
class IterationTrace:
    """Per-step record of the two-map iteration plus corrected companions.

    Raw rows n = 0..n_raw-1 hold z, y, the s-images sz/sy and the t-power
    images tz/ty.  The corrected sequences asz/asy live at indices
    0..n_raw-3 (each needs the two following raw terms), alongside the
    effective per-component gates.  ``a_vals``/``b_vals`` are the schedule
    values actually used.
    """

    z: np.ndarray
    y: np.ndarray
    sz: np.ndarray
    sy: np.ndarray
    tz: np.ndarray
    ty: np.ndarray
    asz: np.ndarray
    asy: np.ndarray
    gates_z: np.ndarray
    gates_y: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    steps: int
    solve_tol: float
    floor_scale: float
    diverged: bool = False
    failure: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    @property
    def n_raw(self) -> int:
        return self.z.shape[0]

    @property
    def n_accel(self) -> int:
        return self.asz.shape[0]
