"""The generalized two-map S-iteration engine.

One step at index n, seeded with z0 (t^0 is the identity):

    sy_n   = (1 - b_n) * sz_n + b_n * t^n(z_n)      y_n = solve(sy_n)
    sz_n+1 = (1 - a_n) * t^n(z_n) + a_n * t^n(y_n)  z_n+1 = solve(sz_n+1)

A run records n_raw = steps rows (the final row gets its y-half only) and
feeds both s-image sequences through the gated delta-squared corrector.
Non-finite intermediates halt the run; the partial trace is kept and
flagged instead of raised, because the stability sweeps deliberately
explore unstable regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .aitken import DEFAULT_FLOOR_SCALE, accelerate_sequence
from .errors import IndexOutOfRangeError, NonFiniteError, SolveError
from .model import GatePolicy, IterationTrace, OperatorPair, Operator, Schedule, Vector, as_state


def matrix_powers(t: Operator) -> Iterator[np.ndarray]:
    """Yield T^0 = I, T^1, T^2, ... of a matrix map, holding one power at a time.

    Each power is the product T @ T^(n-1); every consumer relies on that
    order for bit-identical results.  Raises ``NonFiniteError`` in place of
    yielding a power that overflowed.
    """
    m = np.eye(t.dim)
    n = 0
    while True:
        yield m
        n += 1
        with np.errstate(over="ignore", invalid="ignore"):
            m = t.matrix @ m
        if not np.all(np.isfinite(m)):
            raise NonFiniteError(f"power {n} of the update map overflowed")


def _apply_power(t: Operator, power: Optional[np.ndarray], n: int, x: Vector) -> Vector:
    """t^n(x): one product with the matrix power, or n compositions of a callback t."""
    if power is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            out = power @ x
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"t^{n} x is non-finite")
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            x = t(x)
            if not np.all(np.isfinite(x)):
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
    if not np.all(np.isfinite(v)):
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
    stream = matrix_powers(t) if t.is_linear else itertools.repeat(None)
    d = cfg.dim
    z, y, sz, sy, tz, ty = (np.empty((n_steps, d)) for _ in range(6))
    z[0] = cfg.z0
    m = 0  # complete rows carry all six quantities

    diverged = False
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sz[0] = _check_finite("s(z0)", cfg.pair.s(cfg.z0), 0)
            for n, power in zip(range(n_steps), stream):
                tz[n] = _apply_power(t, power, n, z[n])
                sy[n] = _check_finite("sy_n", (1.0 - b_vals[n]) * sz[n] + b_vals[n] * tz[n], n)
                y[n] = cfg.pair.solve(sy[n])
                ty[n] = _apply_power(t, power, n, y[n])
                m = n + 1
                if m == n_steps:
                    break
                sz[m] = _check_finite("sz_next", (1.0 - a_vals[n]) * tz[n] + a_vals[n] * ty[n], n)
                z[m] = cfg.pair.solve(sz[m])
    except (NonFiniteError, SolveError) as exc:
        diverged = True
        failure = str(exc)

    z, y, sz, sy, tz, ty = (rows[:m] for rows in (z, y, sz, sy, tz, ty))
    if m >= 3:
        asz, gz = accelerate_sequence(sz, cfg.gates_z, cfg.floor_scale)
        asy, gy = accelerate_sequence(sy, cfg.gates_y, cfg.floor_scale)
    else:
        asz = asy = np.empty((0, d))
        gz = gy = np.empty((0, d), dtype=np.int64)

    return IterationTrace(
        z=z, y=y, sz=sz, sy=sy, tz=tz, ty=ty,
        asz=asz, asy=asy, gates_z=gz, gates_y=gy,
        a_vals=a_vals[:m], b_vals=b_vals[:m],
        steps=n_steps, solve_tol=cfg.pair.solve_tol, floor_scale=cfg.floor_scale,
        diverged=diverged, failure=failure,
    )


def identity_residual(trace: IterationTrace, n: int) -> float:
    """Norm of the step identity that couples the two recursions at index n.

    The combination b_n*sz_{n+1} + (1-a_n)(1-b_n)*sz_n equals
    (1-a_n)*sy_n + a_n*b_n*t^n(y_n) exactly in real arithmetic, so the
    returned value is pure floating-point error.
    """
    if n < 0 or n + 1 >= trace.n_raw:
        raise IndexOutOfRangeError(f"need rows n and n+1 in the trace, got n={n} of {trace.n_raw}")
    a_n = trace.a_vals[n]
    b_n = trace.b_vals[n]
    lhs = b_n * trace.sz[n + 1] + (1.0 - a_n) * (1.0 - b_n) * trace.sz[n]
    rhs = (1.0 - a_n) * trace.sy[n] + a_n * b_n * trace.ty[n]
    return float(np.linalg.norm(lhs - rhs))


def identity_residuals(trace: IterationTrace) -> np.ndarray:
    """identity_residual at every index with a successor row."""
    count = max(trace.n_raw - 1, 0)
    return np.array([identity_residual(trace, n) for n in range(count)])
