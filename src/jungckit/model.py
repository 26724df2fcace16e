"""Domain types shared by the iteration engine, verifiers and the CLI.

State vectors are plain 1-D float64 numpy arrays validated through
:func:`as_state`.  Operators wrap a dense, finite square matrix; an
:class:`OperatorPair` couples the solved-against map ``s`` with the
iterated map ``t`` and caches the inverse and norm data that the step and
the stability certificates need.  A :class:`Schedule` holds the values it
has evaluated, read-only, so a run, its certificates and their
cross-check read one evaluation of each schedule (``Schedule.prefix``).
An :class:`IterationTrace` stores the live rows of a run and builds each
full-length array, and its corrected rows and gates, the first time it is
read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    NonFiniteError,
    ScheduleViolationError,
    SingularOperatorError,
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
    """A linear map on R^d, held as a dense, finite square matrix (a copy of
    the one passed in).  Raises ``DimensionMismatchError`` for a matrix that
    is not square and ``NonFiniteError`` for NaN/Inf entries."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix: Sequence[Sequence[float]] | np.ndarray):
        a = np.array(matrix, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatchError(f"operator matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("operator matrix has non-finite entries")
        self.matrix = a
        self.dim = a.shape[0]

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence[float]] | np.ndarray) -> "Operator":
        return cls(m)

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls.from_matrix(np.eye(dim))

    @classmethod
    def scaled_identity(cls, scale: float, dim: int) -> "Operator":
        return cls.from_matrix(scale * np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "Operator":
        return cls.from_matrix(np.zeros((dim, dim)))

    def __call__(self, x: Vector) -> Vector:
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"operator expects dimension {self.dim}, got {x.shape}")
        return self.matrix @ x

    def __repr__(self) -> str:
        return f"Operator(matrix, dim={self.dim})"


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; +inf when the matrix is not finite.  The
    same bits as ``np.linalg.norm(m, 2)``, which takes the largest of the
    same SVD's values, and they come largest first."""
    if not np.isfinite(m).all():
        return math.inf
    return float(np.linalg.svd(m, compute_uv=False)[0])


def exact_row_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-ordered 2-D array, bit-identical to
    ``np.linalg.norm`` of each row: a (1, d) @ (d, 1) product runs numpy's
    dot kernel, as that norm does; ``norm(r, axis=1)`` sums in another order.
    Squares of entries below about 1e-154 underflow, so a tiny nonzero row
    can come out 0; use :func:`safe_row_norms` where that matters.  A finite
    row whose squares overflow gets its :func:`safe_row_norms` value, where
    ``np.linalg.norm`` returns inf (see :func:`unoverflowed`)."""
    with np.errstate(over="ignore"):
        return unoverflowed(np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0]), r)


def unoverflowed(norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``norms`` of ``rows``, each inf norm of a finite row (its squares
    overflowed) replaced in place by the row's :func:`safe_row_norms` value."""
    lost = np.isinf(norms)
    if lost.any():
        lost &= np.isfinite(rows).all(axis=1)
        norms[lost] = safe_row_norms(rows[lost])
    return norms


def live_row_count(rows: np.ndarray) -> int:
    """Length of the live prefix of a 2-D array: the rows up to and
    including the last one with a nonzero entry.  ``-0.0`` counts as zero;
    NaN and +-inf count as nonzero.  An array with no entries is all live.

    A settled trace ends in rows of zeros (see :mod:`jungckit.engine`);
    everything else pays one test of its last row."""
    n = rows.shape[0]
    if rows.size == 0 or rows[-1].any():
        return n
    # the first nonzero of the reversed entries: one flat compare and an
    # argmax cost less than a per-row any() or flatnonzero
    nonzero = (rows != 0).ravel()[::-1]
    back = int(np.argmax(nonzero))
    if not nonzero[back]:
        return 0
    return n - back // rows.shape[1]


def safe_row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed on the row scaled by its largest
    absolute entry so that squares of tiny entries cannot underflow to 0.

    Only the live prefix (:func:`live_row_count`) is computed; each row
    after it gets ``+0.0``, which the scaled formula gives for a row of
    +-0 (its peak is +0, the row is divided by 1, and +0 * sqrt(+0) = +0)."""
    live = live_row_count(rows)
    head = rows[:live]
    peak = np.max(np.abs(head), axis=1, keepdims=True)
    unit = head / np.where(peak > 0, peak, 1.0)
    norms = peak[:, 0] * np.sqrt(np.sum(unit * unit, axis=1))
    if live == rows.shape[0]:
        return norms
    full = np.zeros(rows.shape[0], dtype=norms.dtype)
    full[:live] = norms
    return full


@dataclass(frozen=True)
class OperatorPair:
    """The coupled maps of the two-map scheme.

    ``s`` is solved against at every step (must be injective on the working
    space); ``t`` is the map whose powers drive the update.  Every other
    field is derived here, on each construction (``dataclasses.replace``
    too): ``s`` is inverted once into ``s_inverse`` and gets its minimum
    modulus and norm from one SVD, and ``t`` gets its norm.  Every solve is
    one product with ``s_inverse``.  Raises ``InvalidArgumentError`` unless
    ``solve_tol > 0``, ``DimensionMismatchError`` on unequal dimensions and
    ``SingularOperatorError`` when ``s`` has minimum modulus at or below
    ``solve_tol``; logs ``inverse_solve_warning`` when it is set.
    """

    s: Operator
    t: Operator
    solve_tol: float
    # derived, never passed in; kept out of __eq__ and __hash__ (an array has
    # no truth value and no hash, and the rest follow from s and t)
    s_min_modulus: float = field(init=False, compare=False)
    s_norm: float = field(init=False, compare=False)
    t_norm: float = field(init=False, compare=False)
    s_inverse: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.solve_tol > 0:
            raise InvalidArgumentError("solve_tol must be positive")
        if self.s.dim != self.t.dim:
            raise DimensionMismatchError(f"maps live in different dimensions: {self.s.dim} vs {self.t.dim}")
        # one SVD gives both ends: singular values come largest first
        sv = np.linalg.svd(self.s.matrix, compute_uv=False)
        mu = float(sv[-1])
        if mu <= self.solve_tol:
            raise SingularOperatorError(f"minimum modulus {mu:.3e} <= tol {self.solve_tol:.3e}; "
                                        "the map is not safely invertible")
        try:
            inverse = np.linalg.inv(self.s.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(f"s is not invertible: {exc}") from exc
        object.__setattr__(self, "s_min_modulus", mu)
        object.__setattr__(self, "s_norm", float(sv[0]))
        object.__setattr__(self, "s_inverse", inverse)
        object.__setattr__(self, "t_norm", spectral_norm(self.t.matrix))
        if (warning := self.inverse_solve_warning) is not None:
            log.warning("%s", warning)

    @property
    def dim(self) -> int:
        return self.s.dim

    @property
    def inverse_solve_warning(self) -> Optional[str]:
        """A note when solving with the cached inverse may miss ``solve_tol``.

        The product ``s_inverse @ v`` is within about 4 * d * eps * cond(s)
        of the solution relative to ||s^-1|| ||v||, which for ``v`` along the
        top singular direction of ``s`` is 4 * d * eps * cond(s)^2 relative to
        the solution itself (an LU solve stays near d * eps * cond(s)).
        ``None`` when that bound is within ``solve_tol``.
        """
        cond = self.s_norm / self.s_min_modulus
        # Python floats: a bound past the float range is inf, with no overflow warning
        loss = 4.0 * self.dim * float(np.finfo(float).eps) * cond * cond
        if loss <= self.solve_tol:
            return None
        return (f"cond(s)={cond:.3e}: solving with the inverse of s can be off by up to "
                f"4*d*eps*cond(s)^2={loss:.3e} relative, above solve_tol {self.solve_tol:g}")


def make_operator_pair(s: Operator, t: Operator, tol: float = 1e-10) -> OperatorPair:
    """``OperatorPair(s, t, tol)``: the pair derives its inverse and norms
    and runs its checks itself; ``OperatorPair.inverse_solve_warning`` says
    when solving with the cached inverse can miss ``tol``."""
    return OperatorPair(s=s, t=t, solve_tol=tol)


SCHEDULE_FORMS = ("constant", "one-minus-inv", "inv", "inv-pow", "list")


#: the values of a schedule that has evaluated none yet
_NO_VALUES = np.empty(0)
_NO_VALUES.flags.writeable = False


@dataclass(frozen=True)
class Schedule:
    """Evaluable parameter sequence with a clamping range.

    Supported forms: ``constant`` c, ``one-minus-inv`` 1 - 1/(n+k),
    ``inv`` 1/(n+k), ``inv-pow`` 1/(n+k)^p, and explicit ``list`` values.
    Values falling outside ``clamp`` are clamped (and logged), never
    rejected; explicit lists raise past their length.

    A schedule keeps the values it has evaluated (``prefix``), so each
    value is evaluated once however many readers ask for it.  A schedule
    is frozen, so what it keeps is never stale; ``dataclasses.replace``
    builds a new one, which starts with no values.
    """

    form: str
    c: float = 0.0
    k: int = 2
    p: float = 1.0
    values: tuple = ()
    clamp: tuple = (0.0, 1.0)
    # derived, never passed in: the read-only values at n = 0, 1, ... evaluated so far
    _held: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.form not in SCHEDULE_FORMS:
            raise InvalidArgumentError(f"unknown schedule form {self.form!r}")
        lo, hi = self.clamp
        if math.isnan(lo) or math.isnan(hi) or not lo <= hi:
            raise InvalidArgumentError(f"bad clamp range {self.clamp!r}")
        if self.form in ("one-minus-inv", "inv", "inv-pow") and self.k < 1:
            raise InvalidArgumentError("rational schedules need k >= 1 so n=0 is evaluable")
        if not all(math.isfinite(v) for v in (self.c, self.p, *self.values)):
            raise InvalidArgumentError("schedule parameters and values must be finite")
        object.__setattr__(self, "_held", _NO_VALUES)

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

    def prefix(self, count: int) -> np.ndarray:
        """The values at n = 0..count-1, clamped into ``clamp``, read-only,
        from the ones this schedule keeps: only those at n past the kept
        ones are evaluated, and then kept too.  An explicit list raises past
        its length."""
        held = self._held
        if count > held.size:
            fresh = self._evaluate(held.size, count)
            held = np.concatenate((held, fresh)) if held.size else fresh
            held.setflags(write=False)
            object.__setattr__(self, "_held", held)
        return held[:max(count, 0)]

    def _evaluate(self, start: int, stop: int) -> np.ndarray:
        """The clamped values at n = start..stop-1, each the same bits
        whatever the range it is evaluated in."""
        n = np.arange(start, max(stop, start))
        if self.form == "constant":
            raw = np.full(n.size, float(self.c))
        elif self.form == "one-minus-inv":
            raw = 1.0 - 1.0 / (n + self.k)
        elif self.form == "inv":
            raw = 1.0 / (n + self.k)
        elif self.form == "inv-pow":
            # numpy's power differs from libm's pow in the last bit on some values
            try:
                raw = np.array([1.0 / float(i) ** self.p for i in range(self.k + start, self.k + start + n.size)],
                               dtype=float)
            except (OverflowError, ZeroDivisionError):
                for i in n.tolist():
                    _inv_pow(self, i)  # raises the typed error at the first n that fails
                raise
        else:
            if start + n.size > len(self.values):
                raise IndexOutOfRangeError(
                    f"explicit schedule has {len(self.values)} values, asked for n={len(self.values)}"
                )
            raw = np.array(self.values[start:start + n.size], dtype=float)
        lo, hi = self.clamp
        low, high = raw < lo, raw > hi
        clamped = np.flatnonzero(low | high)
        if clamped.size:
            log.debug("%d schedule value(s) clamped into [%g, %g], first at n=%d", clamped.size, lo, hi,
                      start + clamped[0])
            # below lo the value is min(hi, lo), so a clamp range (0.0, -0.0) keeps hi's sign
            raw = np.where(low, min(hi, lo), np.where(high, hi, raw))
        return raw

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


def _inv_pow(s: Schedule, n: int) -> float:
    """1/(n+k)^p at step n with Python's float power."""
    try:
        return 1.0 / float(n + s.k) ** s.p
    except (OverflowError, ZeroDivisionError) as exc:
        raise ScheduleViolationError(
            f"inv-pow schedule 1/(n+k)^p overflows in floating point at n={n} (k={s.k}, p={s.p!r}): {exc}"
        ) from exc


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
            raise InvalidArgumentError(f"unknown gate mode {self.mode!r}")
        if not self.tau >= 0:
            raise InvalidArgumentError("gate threshold must be nonnegative")
        if any(v not in (0, 1) for v in self.values):
            raise InvalidArgumentError("explicit gate values must be 0 or 1")

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


class TraceRows(NamedTuple):
    """The stored rows of a trace's raw sequences, read-only."""

    z: np.ndarray
    y: np.ndarray
    sz: np.ndarray
    sy: np.ndarray
    ty: np.ndarray


def _padded(rows: np.ndarray, length: int) -> np.ndarray:
    """``rows`` followed by +0 rows up to ``length``, read-only; ``rows``
    itself when it has ``length`` rows already."""
    if len(rows) == length:
        return rows
    full = np.zeros((length, *rows.shape[1:]), dtype=rows.dtype)
    full[:len(rows)] = rows
    full.setflags(write=False)
    return full


class IterationTrace:
    """Per-step record of the two-map iteration plus corrected companions.

    Raw rows n = 0..n_raw-1 hold z, y, the s-images sz/sy and the t-power
    images ty = t^n(y_n).  ``a_vals``/``b_vals`` are the schedule values
    actually used.  The corrected sequences asz/asy live at indices
    0..n_raw-3 (each needs the two following raw terms), alongside the
    effective per-component gates gates_z/gates_y.

    A trace stores only the live rows of a settled run (``live``, the
    first ``n_live`` rows of each raw sequence; see :mod:`jungckit.engine`):
    every row after them is +0.  ``n_raw`` is the trace's length, the
    stored rows' count unless it is passed.  The row arrays passed in are
    kept, not copied, and set read-only.  The nine public arrays z, y,
    sz, sy, ty, asz, asy, gates_z and gates_y have their full length: each
    is built on its first read by padding what is stored with +0 rows
    (gate 0), then kept, read-only.  A trace whose rows are all stored
    returns them, with no copy.  The library's own readers (the corrector,
    ``z_norms``, ``stability.cross_validate`` and the scan's checks) read
    the stored rows and never build the full arrays.

    The corrected rows and gates are computed together, from the stored sz
    and sy with the gate policies ``policy_z``/``policy_y`` and
    ``floor_scale``, the first time one of them is read; a reader of the
    raw rows alone never pays for them.  A gate list too short for the
    trace's windows raises when the trace is built, where the corrector
    would refuse it.
    """

    def __init__(self, z: np.ndarray, y: np.ndarray, sz: np.ndarray, sy: np.ndarray, ty: np.ndarray,
                 a_vals: np.ndarray, b_vals: np.ndarray, policy_z: GatePolicy, policy_y: GatePolicy,
                 floor_scale: float, steps: int, diverged: bool = False, failure: Optional[str] = None,
                 n_raw: Optional[int] = None):
        self.live = TraceRows(z, y, sz, sy, ty)
        for rows in self.live:
            rows.setflags(write=False)
        self.n_raw = len(z) if n_raw is None else n_raw
        self.a_vals, self.b_vals = a_vals, b_vals
        self.policy_z, self.policy_y = policy_z, policy_y
        self.floor_scale = floor_scale
        self.steps = steps
        self.diverged = diverged
        self.failure = failure
        # asked about every window with no columns, as the corrector asks about a zero tail
        windows = np.empty((self.n_accel, 0))
        policy_z.gates(0, windows)
        policy_y.gates(0, windows)

    @property
    def dim(self) -> int:
        return self.live.z.shape[1]

    @property
    def n_live(self) -> int:
        return len(self.live.z)

    @property
    def n_accel(self) -> int:
        return max(self.n_raw - 2, 0)

    @cached_property
    def _corrected(self) -> tuple:
        """``(asz, gates_z, asy, gates_y)`` from the gated delta-squared
        corrector, at the windows that start on a stored row.  The sequence
        it corrects is the stored rows and the +0 rows of the trace after
        them that those windows reach, two at most; every later window is
        +0 throughout, so its term is +0 with gate 0.  The policies were
        asked about every window when the trace was built."""
        from .aitken import accelerate_sequence  # aitken imports this module

        if self.n_raw < 3:
            empty, gates = np.empty((0, self.dim)), np.empty((0, self.dim), dtype=np.int8)
            parts = (empty, gates, empty, gates)
        else:
            read = min(self.n_live + 2, self.n_raw)
            parts = []
            for rows, policy in ((self.live.sz, self.policy_z), (self.live.sy, self.policy_y)):
                parts += accelerate_sequence(_padded(rows, read), policy, self.floor_scale)
        for part in parts:
            part.setflags(write=False)
        return tuple(parts)

    z = cached_property(lambda self: _padded(self.live.z, self.n_raw))
    y = cached_property(lambda self: _padded(self.live.y, self.n_raw))
    sz = cached_property(lambda self: _padded(self.live.sz, self.n_raw))
    sy = cached_property(lambda self: _padded(self.live.sy, self.n_raw))
    ty = cached_property(lambda self: _padded(self.live.ty, self.n_raw))
    asz = cached_property(lambda self: _padded(self._corrected[0], self.n_accel))
    gates_z = cached_property(lambda self: _padded(self._corrected[1], self.n_accel))
    asy = cached_property(lambda self: _padded(self._corrected[2], self.n_accel))
    gates_y = cached_property(lambda self: _padded(self._corrected[3], self.n_accel))

    @cached_property
    def z_norms(self) -> np.ndarray:
        """``safe_row_norms(z)``, taken over the stored rows on first use and
        kept, read-only: the scan and the certificate cross-check both read
        it."""
        norms = safe_row_norms(self.live.z)
        norms.setflags(write=False)
        return _padded(norms, self.n_raw)
