"""The generalized two-map S-iteration engine.

One step at index n, seeded with z0 (t^0 is the identity):

    sy_n   = (1 - b_n) * sz_n + b_n * t^n(z_n)      y_n = solve(sy_n)
    sz_n+1 = (1 - a_n) * t^n(z_n) + a_n * t^n(y_n)  z_n+1 = solve(sz_n+1)

A run records n_raw = steps rows (the final row gets its y-half only).
It reads a_n and b_n from ``Schedule.prefix``: each schedule keeps the
values it has evaluated, so the certificates and the cross-check that
read the same config evaluate none again.  The trace feeds both s-image
sequences through the gated delta-squared corrector the first time its
corrected rows are read (:class:`jungckit.model.IterationTrace`), so a
reader of the raw rows alone, such as the soundness sweep, never runs it.
Non-finite intermediates halt the run; the partial trace is kept and
flagged instead of raised, because the stability sweeps deliberately
explore unstable regions.

Finiteness is checked once per block of powers (:func:`matrix_power_blocks`),
not after each quantity of each step.  The steps of a block first run
unchecked, each product and blend written straight into its trace row;
then one ``isfinite`` test runs over the rows the block wrote, for each of
sy, y, ty, sz and z.  t^n(z_n) is not kept, but a non-finite one always
shows in sy_n: b_n * inf and 0 * inf are both non-finite, and so is any
sum with a non-finite term.  When the test fails, the block runs again
from its first row, through the same code with a check after each
quantity.  That replay raises at the first non-finite quantity, so the
failure message and the row where the trace is cut are those of a check
after every quantity.  A power that overflows ends the stream between two
blocks, once the block before it has passed its test, so it needs no
replay.

A contractive run often underflows to an exactly zero state long before
its last step.  Once z_m and sz_m are both +0 in every entry, the rows
m onwards are filled with +0 and no later power of t is computed.  That
is the trace the step would produce, bit for bit, when two conditions
hold:

* the cached ||t|| is at most 1, so no later power can overflow (an
  overflowed power would truncate the trace as diverged);
* the state is +0, not -0: a finite matrix (a power of t, or the cached
  inverse of s that every solve multiplies by) times a +0 vector sums from
  +0 and gives +0, and a blend (1 - c) * u + c * v of +0 vectors with a
  finite c is +0, because at most one of 1 - c and c is negative.

The corrector and :func:`jungckit.model.safe_row_norms` compute nothing
on those rows: they find the last nonzero row and give each later one the
result their formulas give for a zero row.

Schedule values are finite, or infinite from the first step on, which
halts the run before any state is tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .aitken import DEFAULT_FLOOR_SCALE
from .errors import InvalidArgumentError, NonFiniteError, SolveError
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
            raise InvalidArgumentError("z0 is required")
        self.z0 = as_state(self.z0, dim=self.pair.dim)
        if self.steps < 1:
            raise InvalidArgumentError("steps must be >= 1")
        if self.steps < 3 and not (self.gates_z.is_always_off and self.gates_y.is_always_off):
            raise InvalidArgumentError("correction gates need steps >= 3 (two-term lookahead)")
        if not self.floor_scale > 0:  # NaN fails it too
            raise InvalidArgumentError(f"floor_scale must be positive, got {self.floor_scale}")

    @property
    def dim(self) -> int:
        return self.pair.dim


def _check_finite(v: Vector, error: type, message: str) -> None:
    if not np.isfinite(v).all():
        raise error(message)


def _step_rows(cfg: JungckConfig, a_vals: np.ndarray, b_vals: np.ndarray,
               blocks: Iterator[np.ndarray]) -> tuple[tuple, int, str | None]:
    """Step the scheme from z0 for cfg.steps indices, reading the powers
    of t from ``blocks``, a stream of ``matrix_power_blocks``.

    Returns the ``(steps, d)`` arrays z, y, sz, sy and ty, the count m of
    their complete rows (the rows after them are unset), and the failure
    message, ``None`` when every quantity was finite.
    """
    n_steps = cfg.steps
    z, y, sz, sy, ty = rows = tuple(np.empty((n_steps, cfg.dim)) for _ in range(5))
    z[0] = cfg.z0
    s_inverse = cfg.pair.s_inverse
    # each call below passes its output array as the third argument, which
    # costs less than out= and leaves the arithmetic as it is
    matmul, multiply, add = np.matmul, np.multiply, np.add
    # whether an exactly +0 state is a fixed point of the step (module docstring)
    settles = cfg.pair.t_norm <= 1.0
    tz, term = np.empty(cfg.dim), np.empty(cfg.dim)  # t^n(z_n), and the second term of a blend
    m = 0  # complete rows carry all five quantities

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sz[0] = cfg.pair.s(cfg.z0)
            _check_finite(sz[0], NonFiniteError, "s(z0) is non-finite at step 0")
            for block in blocks:
                first = m
                # the block's steps unchecked, then, only if a row they wrote
                # is not finite, the same steps with every check (module docstring)
                for checked in (False, True):
                    m = first
                    for n, power, a_n, b_n in zip(range(first, n_steps), block, a_vals[first:], b_vals[first:]):
                        sz_n, sy_n, y_n, ty_n = sz[n], sy[n], y[n], ty[n]
                        matmul(power, z[n], tz)
                        if checked:
                            _check_finite(tz, NonFiniteError, f"t^{n} x is non-finite")
                        multiply(1.0 - b_n, sz_n, sy_n)
                        multiply(b_n, tz, term)
                        add(sy_n, term, sy_n)
                        if checked:
                            _check_finite(sy_n, NonFiniteError, f"sy_n is non-finite at step {n}")
                        matmul(s_inverse, sy_n, y_n)
                        if checked:
                            _check_finite(y_n, SolveError, "solve produced non-finite values")
                        matmul(power, y_n, ty_n)
                        if checked:
                            _check_finite(ty_n, NonFiniteError, f"t^{n} x is non-finite")
                        m = n + 1
                        if m == n_steps:
                            break
                        sz_m, z_m = sz[m], z[m]
                        multiply(1.0 - a_n, tz, sz_m)
                        multiply(a_n, ty_n, term)
                        add(sz_m, term, sz_m)
                        if checked:
                            _check_finite(sz_m, NonFiniteError, f"sz_next is non-finite at step {n}")
                        matmul(s_inverse, sz_m, z_m)
                        if checked:
                            _check_finite(z_m, SolveError, "solve produced non-finite values")
                        # the scalar test first: it is all a run that never settles pays
                        if (settles and z_m[0] == 0.0
                                and not z_m.view(np.int64).any() and not sz_m.view(np.int64).any()):
                            for row_kind in rows:
                                row_kind[m:] = 0.0
                            m = n_steps
                            break
                    # no test of t^n(z_n): a non-finite one makes sy_n non-finite
                    if (checked or (np.isfinite(sy[first:m]).all() and np.isfinite(y[first:m]).all()
                                    and np.isfinite(ty[first:m]).all() and np.isfinite(sz[first + 1:m + 1]).all()
                                    and np.isfinite(z[first + 1:m + 1]).all())):
                        break
                if m == n_steps:
                    break
    except (NonFiniteError, SolveError) as exc:
        return rows, m, str(exc)
    return rows, m, None


def run(cfg: JungckConfig, fold=None) -> IterationTrace:
    """Execute the scheme for cfg.steps raw indices.  The trace corrects
    both s-image sequences when its corrected rows are first read.

    On overflow or solve failure the trace is truncated to the last complete
    row and flagged ``diverged`` with the failure message.

    ``fold``, a ``stability.ConstantsFold`` when given, supplies the
    stream of powers (``fold.powers()``), so it reads the powers the run
    forms; past the run's last row, the zero fill or a failed step, the
    fold reads on from the same stream while it wants powers.
    """
    n_steps = cfg.steps
    a_vals = cfg.a.prefix(n_steps)
    b_vals = cfg.b.prefix(n_steps)
    blocks = matrix_power_blocks(cfg.pair.t) if fold is None else fold.powers()
    rows, m, failure = _step_rows(cfg, a_vals, b_vals, blocks)
    if fold is not None:
        fold.read_on(blocks)
    z, y, sz, sy, ty = (row_kind[:m] for row_kind in rows)
    return IterationTrace(
        z=z, y=y, sz=sz, sy=sy, ty=ty, a_vals=a_vals[:m], b_vals=b_vals[:m],
        policy_z=cfg.gates_z, policy_y=cfg.gates_y, floor_scale=cfg.floor_scale,
        steps=n_steps, diverged=failure is not None, failure=failure,
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
