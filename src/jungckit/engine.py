"""The generalized two-map S-iteration engine.

One step at index n, seeded with z0 (t^0 is the identity):

    sy_n   = (1 - b_n) * sz_n + b_n * t^n(z_n)      y_n = solve(sy_n)
    sz_n+1 = (1 - a_n) * t^n(z_n) + a_n * t^n(y_n)  z_n+1 = solve(sz_n+1)

A run records n_raw = steps rows (the final row gets its y-half only) and
feeds both s-image sequences through the gated delta-squared corrector.
Non-finite intermediates halt the run; the partial trace is kept and
flagged instead of raised, because the stability sweeps deliberately
explore unstable regions.

A contractive run often underflows to an exactly zero state long before
its last step.  Once z_m and sz_m are both +0 in every entry, the rows
m onwards are filled with +0 and no later power of t is computed.  That
is the trace the step would produce, bit for bit, when three conditions
hold:

* t is a matrix with cached ||t|| <= 1, so no later power can overflow
  (an overflowed power would truncate the trace as diverged);
* the solve is the cached inverse of s (no user ``s_solve``), which maps
  +0 to +0, where a user solver may map 0 elsewhere;
* the state is +0, not -0: a finite matrix times a +0 vector sums from
  +0 and gives +0, and a blend (1 - c) * u + c * v of +0 vectors with a
  finite c is +0, because at most one of 1 - c and c is negative.

Schedule values are finite, or infinite from the first step on, which
halts the run before any state is tested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .aitken import DEFAULT_FLOOR_SCALE, accelerate_sequence
from .errors import NonFiniteError, SolveError
from .model import (GatePolicy, IterationTrace, OperatorPair, Operator, Schedule, Vector, as_state, exact_row_norms,
                    safe_row_norms)


#: elements per block of powers: blocks grow 1, 2, 4, ... powers up to
#: max(1, BLOCK_ELEMENTS // d^2) powers each
BLOCK_ELEMENTS = 2048


def matrix_power_blocks(t: Operator) -> Iterator[np.ndarray]:
    """Yield consecutive ``(k, d, d)`` blocks of T^0 = I, T^1, T^2, ... of a
    matrix map.  The first block holds T^0 alone, and each later one twice
    as many powers as the one before, up to ``max(1, BLOCK_ELEMENTS // d^2)``,
    so a consumer that stops early has computed at most about twice the
    powers it read.

    Each power is the product T @ T^(n-1); every consumer relies on that
    order for bit-identical results.  A yielded block may be overwritten by
    the next one, so use it before asking for more.  When a power
    overflows, the finite powers before it are yielded first and
    ``NonFiniteError`` is raised in place of the next block.
    """
    d = t.dim
    k_max = max(1, BLOCK_ELEMENTS // (d * d))
    store = np.empty((k_max, d, d)) if k_max > 1 else None
    block = np.eye(d)[None]
    n = 1  # the first power of the next block
    while True:
        yield block
        prev = block[-1]
        k = min(2 * len(block), k_max)
        # a power cannot be written over its predecessor, so a one-power
        # block takes a new buffer, and the old one is freed once the
        # consumer lets go of it, as with a plain T @ T^(n-1); a longer
        # block follows T^0 (an array of its own) or a block of two or
        # more, whose last power lies past store[0] and is read before
        # it is written over
        block = store[:k] if k > 1 else np.empty((1, d, d))
        # not held across the yield: it would set the consumer's error state too
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k):
                np.matmul(t.matrix, prev, out=block[j])
                prev = block[j]
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            bad = int(np.argmin(finite))
            if bad:
                yield block[:bad]
            raise NonFiniteError(f"power {n + bad} of the update map overflowed")
        n += k


def _apply_power(t: Operator, power: Optional[np.ndarray], n: int, x: Vector) -> Vector:
    """t^n(x): one product with the matrix power, or n compositions of a callback t.

    The caller holds ``np.errstate`` that ignores overflow."""
    if power is not None:
        out = power @ x
        if not np.isfinite(out).all():
            raise NonFiniteError(f"t^{n} x is non-finite")
        return out
    for _ in range(n):
        x = t(x)
        if not np.isfinite(x).all():
            raise NonFiniteError("repeated application of the update map overflowed")
    return x


@dataclass
class JungckConfig:
    """Everything one run needs: the map pair, schedules, gates and seed."""

    pair: OperatorPair
    a: Schedule
    b: Schedule
    gates_z: GatePolicy = field(default_factory=GatePolicy.always_on)
    gates_y: GatePolicy = field(default_factory=GatePolicy.always_on)
    z0: Vector = None
    steps: int = 50
    floor_scale: float = DEFAULT_FLOOR_SCALE
    nonneg_domain: bool = False

    def __post_init__(self):
        if self.z0 is None:
            raise ValueError("z0 is required")
        self.z0 = as_state(self.z0, dim=self.pair.dim)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps < 3 and not (self.gates_z.is_always_off and self.gates_y.is_always_off):
            raise ValueError("correction gates need steps >= 3 (two-term lookahead)")
        if self.floor_scale <= 0:
            raise ValueError("floor_scale must be positive")

    @property
    def dim(self) -> int:
        return self.pair.dim


def _check_finite(name: str, v: Vector, n: int) -> Vector:
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} is non-finite at step {n}")
    return v


def run(cfg: JungckConfig) -> IterationTrace:
    """Execute the scheme for cfg.steps raw indices and correct both s-image
    sequences.

    On overflow or solve failure the trace is truncated to the last complete
    row and flagged ``diverged`` with the failure message.
    """
    n_steps = cfg.steps
    a_vals = cfg.a.array(n_steps)
    b_vals = cfg.b.array(n_steps)

    t = cfg.pair.t
    if t.is_linear:
        stream = (power for block in matrix_power_blocks(t) for power in block)
    else:
        stream = itertools.repeat(None)
    # whether an exactly +0 state is a fixed point of the step (module docstring)
    settles = (t.is_linear and cfg.pair.s_solve is None
               and cfg.pair.t_norm is not None and cfg.pair.t_norm <= 1.0)
    d = cfg.dim
    z, y, sz, sy, ty = (np.empty((n_steps, d)) for _ in range(5))
    z[0] = cfg.z0
    m = 0  # complete rows carry all five quantities

    diverged = False
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sz[0] = _check_finite("s(z0)", cfg.pair.s(cfg.z0), 0)
            for n, power in zip(range(n_steps), stream):
                tz = _apply_power(t, power, n, z[n])
                sy[n] = _check_finite("sy_n", (1.0 - b_vals[n]) * sz[n] + b_vals[n] * tz, n)
                y[n] = cfg.pair.solve(sy[n])
                ty[n] = _apply_power(t, power, n, y[n])
                m = n + 1
                if m == n_steps:
                    break
                sz[m] = _check_finite("sz_next", (1.0 - a_vals[n]) * tz + a_vals[n] * ty[n], n)
                z[m] = cfg.pair.solve(sz[m])
                # the scalar test first: it is all a run that never settles pays
                if (settles and z[m, 0] == 0.0
                        and not z[m].view(np.int64).any() and not sz[m].view(np.int64).any()):
                    for rows in (z, y, sz, sy, ty):
                        rows[m:] = 0.0
                    m = n_steps
                    break
    except (NonFiniteError, SolveError) as exc:
        diverged = True
        failure = str(exc)

    z, y, sz, sy, ty = (rows[:m] for rows in (z, y, sz, sy, ty))
    if m >= 3:
        asz, gz = accelerate_sequence(sz, cfg.gates_z, cfg.floor_scale)
        asy, gy = accelerate_sequence(sy, cfg.gates_y, cfg.floor_scale)
    else:
        asz = asy = np.empty((0, d))
        gz = gy = np.empty((0, d), dtype=np.int64)

    return IterationTrace(
        z=z, y=y, sz=sz, sy=sy, ty=ty,
        asz=asz, asy=asy, gates_z=gz, gates_y=gy,
        a_vals=a_vals[:m], b_vals=b_vals[:m],
        steps=n_steps, diverged=diverged, failure=failure,
    )


def identity_residuals(trace: IterationTrace) -> np.ndarray:
    """Norm of the step identity that couples the two recursions, at every
    index n with a successor row.

    The combination b_n*sz_{n+1} + (1-a_n)(1-b_n)*sz_n equals
    (1-a_n)*sy_n + a_n*b_n*t^n(y_n) exactly in real arithmetic, so each
    value is pure floating-point error.  Each norm is bit-identical to
    ``np.linalg.norm`` of its row.
    """
    count = max(trace.n_raw - 1, 0)
    a = trace.a_vals[:count, None]
    b = trace.b_vals[:count, None]
    lhs = b * trace.sz[1:count + 1] + (1.0 - a) * (1.0 - b) * trace.sz[:count]
    rhs = (1.0 - a) * trace.sy[:count] + a * b * trace.ty[:count]
    return exact_row_norms(lhs - rhs)


def identity_scales(trace: IterationTrace) -> np.ndarray:
    """The size of each step identity of :func:`identity_residuals`: the
    largest of its four terms' norms, |b_n| ||sz_n+1||,
    |(1-a_n)(1-b_n)| ||sz_n||, |1-a_n| ||sy_n|| and |a_n b_n| ||t^n(y_n)||.

    A residual divided by it is rounding relative to the numbers that were
    summed, whatever the magnitude of the iterate.  It is 0 only where all
    four terms are 0, and then so is the residual.
    """
    count = max(trace.n_raw - 1, 0)
    a = trace.a_vals[:count]
    b = trace.b_vals[:count]
    with np.errstate(over="ignore"):
        sz = safe_row_norms(trace.sz[:count + 1])
        return np.maximum.reduce([
            np.abs(b) * sz[1:],
            np.abs((1.0 - a) * (1.0 - b)) * sz[:-1],
            np.abs(1.0 - a) * safe_row_norms(trace.sy[:count]),
            np.abs(a * b) * safe_row_norms(trace.ty[:count]),
        ])
