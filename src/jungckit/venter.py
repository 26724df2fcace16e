"""Nonnegative damped scalar recursion: simulator and verdict machinery.

The recursion

    x_{n+1} = (1 - alpha_n + gamma_n) * x_n + omega_n + sigma,   x_0 >= 0

is stated in the literature as an inequality; the simulator runs the
equality, which dominates every sequence satisfying the inequality, so
all verified bounds are exercised at their worst case.  The limit Cesaro
constant is replaced by its finite mean K_hat, and verdicts are labeled
with the horizon they were computed at.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .aitken import block_rows, row_blocks
from .errors import HypothesisViolatedError, InvalidArgumentError, NonFiniteError, ScheduleViolationError
from .model import Schedule

#: K_hat this close to 1 makes the contraction-style bounds vacuous
K_HAT_WARN = 0.99
#: absolute slack of the uniform bound's sup x <= bound test
IV_SLACK = 1e-9


@dataclass(frozen=True)
class VenterConfig:
    """Schedules and constants of one recursion run."""

    alpha: Schedule
    gamma: Schedule
    omega: Schedule
    sigma: float = 0.0
    x0: float = 1.0
    steps: int = 100

    def __post_init__(self):
        # written so that NaN fails them too
        if not 0 <= self.sigma < math.inf:
            raise ScheduleViolationError("sigma must be finite and >= 0")
        if not 0 <= self.x0 < math.inf:
            raise ScheduleViolationError("x0 must be finite and >= 0")
        if self.steps < 1:
            raise InvalidArgumentError("steps must be >= 1")


@dataclass
class VenterTrace:
    """Simulated recursion with the running artifacts verification needs.

    ``x`` has steps+1 entries; the schedule values and cumulative sums are
    indexed by the step n they were consumed at.  ``k_hat[n]`` is the mean
    of (1 - alpha_i) over i <= n.
    """

    x: np.ndarray
    k_hat: np.ndarray
    alpha_vals: np.ndarray
    gamma_vals: np.ndarray
    omega_vals: np.ndarray
    sum_alpha_x: np.ndarray
    sum_gamma_x: np.ndarray
    sum_omega: np.ndarray
    sum_x: np.ndarray
    sigma: float

    @property
    def steps(self) -> int:
        return len(self.x) - 1

    @property
    def k_hat_final(self) -> float:
        return float(self.k_hat[-1])


def venter_run(cfg: VenterConfig) -> VenterTrace:
    """Run the equality recursion for cfg.steps steps.

    Every evaluated schedule value is checked for admissibility
    (alpha in (0, 1], gamma >= 0, omega >= 0); violations raise
    ``ScheduleViolationError``.  An iterate or partial sum that overflows
    raises ``NonFiniteError``.
    """
    n_steps = cfg.steps
    alpha = cfg.alpha.prefix(n_steps)
    gamma = cfg.gamma.prefix(n_steps)
    omega = cfg.omega.prefix(n_steps)
    for name, vals, lo_open in (("alpha", alpha, True), ("gamma", gamma, False), ("omega", omega, False)):
        if lo_open:
            bad = (vals <= 0) | (vals > 1)
        else:
            bad = vals < 0
        if bad.any():
            n_bad = int(np.argmax(bad))
            raise ScheduleViolationError(f"{name}_n = {vals[n_bad]} at n={n_bad} is not admissible")

    # The recursion runs on Python floats, which overflow to inf without a
    # warning: a memoryview yields them one at a time, and an array("d")
    # keeps each iterate in 8 bytes.
    xn, sigma = float(cfg.x0), float(cfg.sigma)
    x = array("d", [xn])
    for c, w in zip(memoryview(1.0 - alpha + gamma), memoryview(omega)):
        xn = c * xn + w + sigma
        x.append(xn)
    x = np.frombuffer(x)
    with np.errstate(over="ignore", invalid="ignore"):
        xs = x[:-1]
        trace = VenterTrace(
            x=x,
            k_hat=np.cumsum(1.0 - alpha) / np.arange(1, n_steps + 1),
            alpha_vals=alpha,
            gamma_vals=gamma,
            omega_vals=omega,
            sum_alpha_x=np.cumsum(alpha * xs),
            sum_gamma_x=np.cumsum(gamma * xs),
            sum_omega=np.cumsum(omega),
            sum_x=np.cumsum(x),
            sigma=cfg.sigma,
        )
    for name in ("x", "sum_alpha_x", "sum_gamma_x", "sum_omega", "sum_x"):
        finite = np.isfinite(getattr(trace, name))
        if not finite.all():
            raise NonFiniteError(
                f"venter recursion overflowed: {name} is non-finite from n={int(np.argmin(finite))}"
            )
    return trace


def _identity_tol(trace: VenterTrace) -> float:
    """Tolerance of the telescoping and geometric-expansion identities:
    1e-10 * (1 + x_0 + sum omega)."""
    return 1e-10 * (1.0 + trace.x[0] + float(trace.sum_omega[-1]))


@dataclass
class Verdict:
    """One verification outcome."""

    name: str
    passed: bool
    value: float
    threshold: float
    margin: float
    info: dict = field(default_factory=dict)


def verify_property_i(trace: VenterTrace, cfg: VenterConfig, eps: float) -> Verdict:
    """Convergence-to-zero verdict for the undriven recursion.

    Requires sigma = 0 and gamma identically zero over the horizon.  The
    verdict passes when the final iterate is below ``eps``.  Divergence of
    the alpha partial sums is decided symbolically for the built-in
    schedule families (None = unknown) and reported alongside.  The info
    dict also carries the geometric-expansion identity

        x_N = K^N x_0 + sum_{i<N} K^(N-1-i) (omega_i - (K + alpha_i - 1) x_i)

    evaluated with K = K_hat: its residual, which is pure floating-point
    error by construction, and whether it holds within the telescoping
    identity's tolerance 1e-10 * (1 + x_0 + sum omega).  Under the
    hypotheses every x_n is at most x_0 + sum omega, and so is every
    partial Horner sum x_n - K^n x_0, so the residual has the telescoping
    identity's scale.
    Raises ``InvalidArgumentError`` unless ``0 < eps < inf``.
    """
    if not 0 < eps < math.inf:  # NaN fails it too
        raise InvalidArgumentError(f"eps must be finite and > 0, got {eps}")
    if cfg.sigma != 0 or np.count_nonzero(trace.gamma_vals):
        raise HypothesisViolatedError("needs sigma = 0 and gamma = 0")
    k = trace.k_hat_final
    # Horner evaluation of sum_i K^{N-1-i} * (omega_i - (K + alpha_i - 1) x_i), on Python floats,
    # its terms formed one row block at a time
    r = 0.0
    term = np.empty(min(trace.steps, block_rows(1)))
    for block in row_blocks(trace.steps, 1):
        part = term[:block.stop - block.start]
        np.add(trace.alpha_vals[block], k, out=part)
        part -= 1.0
        part *= trace.x[block]
        np.subtract(trace.omega_vals[block], part, out=part)
        for value in memoryview(part):
            r = k * r + value
    expansion_residual = float(trace.x[-1] - k ** trace.steps * trace.x[0] - r)
    final = float(trace.x[-1])
    tol = _identity_tol(trace)
    return Verdict(
        name="venter-i",
        passed=bool(final < eps),
        value=final,
        threshold=eps,
        margin=float(eps - final),
        info={
            "sum_alpha_diverges": cfg.alpha.series_diverges(),
            "expansion_residual": expansion_residual,
            "expansion_remainder": float(r),
            "expansion_tol": tol,
            "expansion_holds": bool(abs(expansion_residual) <= tol),
            "k_hat": k,
        },
    )


def verify_summability(trace: VenterTrace, cfg: VenterConfig) -> Verdict:
    """Telescoping identity check, the strongest oracle of this module.

    For sigma = 0 the equality recursion gives, for every prefix length m,

        sum_{i<m} (alpha_i - gamma_i) x_i + x_m = x_0 + sum_{i<m} omega_i

    exactly in real arithmetic; the verdict passes when the worst residual
    stays within 1e-10 * (1 + x_0 + sum omega).
    """
    if cfg.sigma != 0:
        raise HypothesisViolatedError("needs sigma = 0")
    # |lhs - rhs| one row block at a time; np.max keeps a NaN, as over the whole trace
    worst = np.zeros(1)
    lhs, rhs = np.empty((2, min(trace.steps, block_rows(1))))
    for block in row_blocks(trace.steps, 1):
        size = block.stop - block.start
        np.subtract(trace.sum_alpha_x[block], trace.sum_gamma_x[block], out=lhs[:size])
        lhs[:size] += trace.x[block.start + 1:block.stop + 1]
        np.add(trace.x[0], trace.sum_omega[block], out=rhs[:size])
        lhs[:size] -= rhs[:size]
        worst[0] = np.max(np.abs(lhs[:size], out=lhs[:size]), initial=worst[0])
    worst = float(worst[0])
    scale = _identity_tol(trace)
    return Verdict(
        name="venter-summability",
        passed=bool(worst <= scale),
        value=worst,
        threshold=scale,
        margin=float(scale - worst),
    )


def verify_property_iv(trace: VenterTrace, cfg: VenterConfig) -> Verdict:
    """Uniform bound on the iterates when the damping dominates the drive.

    Requires inf(alpha_n - gamma_n) > 0 over the horizon.  Checks

        sup x_n <= ((1 - K_hat) x_0 + sigma + sup omega_n) / inf(alpha - gamma)

    up to ``IV_SLACK``; the margin is the headroom left in the bound.
    """
    diff = trace.alpha_vals - trace.gamma_vals
    inf_diff = float(np.min(diff))
    if inf_diff <= 0:
        raise HypothesisViolatedError("needs inf(alpha - gamma) > 0")
    sup_x = float(np.max(trace.x))
    sup_omega = float(np.max(trace.omega_vals))
    bound = (1.0 / inf_diff) * ((1.0 - trace.k_hat_final) * trace.x[0] + trace.sigma + sup_omega)
    return Verdict(
        name="venter-iv",
        passed=bool(sup_x <= bound + IV_SLACK),
        value=sup_x,
        threshold=float(bound),
        margin=float(bound - sup_x),
        info={"inf_alpha_minus_gamma": inf_diff, "k_hat": trace.k_hat_final},
    )
