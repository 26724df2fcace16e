"""Sufficient boundedness/convergence certificates for matrix configurations.

The certificates bound the growth of the iteration through the minimum
modulus of the solved-against map and tail suprema of schedule-weighted
power norms.  They are sufficient, not necessary, and every limit-style
hypothesis is replaced by a finite-horizon surrogate, so results are
labeled with the horizon they were computed at.  ``cross_validate``
replays a simulated trace against what an applying certificate promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .engine import JungckConfig, matrix_power_blocks
from .errors import NonFiniteError, TraceMismatchError
from .model import IterationTrace, OperatorPair, Schedule, safe_row_norms

#: slack used when replaying certified bounds against simulation
CROSS_VALIDATE_SLACK = 1e-6
#: absolute slack for norm bounds: below the smallest normal float an iterate
#: is rounding noise a few subnormal steps wide, so no relative bound holds there
NORM_FLOOR = float(np.finfo(float).tiny)
#: relative slack on the early-exit cap of ``compute_constants``; see there
EXIT_SLACK = 1e-6


def _norm_blocks(pair: OperatorPair, horizon: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, norms)``: spectral norms of t^n, t^(n+1), ... one block of
    ``matrix_power_blocks`` at a time, up to t^horizon.  Raises
    ``NonFiniteError`` in place of the block that holds the first overflowed
    power, after yielding the finite powers before it.

    Two norms are known without an SVD, with the bits an SVD would give:
    ||t^0|| = ||I|| = 1, since the Householder reduction of I reflects
    nothing and leaves a diagonal of ones, and ||t^1|| = ``pair.t_norm``,
    the SVD of ``t`` itself, whenever the computed t^1 = t @ I is ``t`` bit
    for bit (the product turns a -0.0 entry into +0.0, and the SVD of such
    a matrix can differ in the last bit, so then t^1 is SVD'd).  The other
    powers of a block go through one stacked SVD, which treats each matrix
    on its own.
    """
    n = 0
    for block in matrix_power_blocks(pair.t):
        block = block[:horizon + 1 - n]
        if n == 0:
            norms = np.ones(len(block))
        else:
            known = int(n == 1 and np.array_equal(block[0].view(np.uint64), pair.t.matrix.view(np.uint64)))
            norms = np.empty(len(block))
            norms[:known] = pair.t_norm
            if known < len(block):
                # singular values come largest first
                norms[known:] = np.linalg.svd(block[known:], compute_uv=False)[:, 0]
        yield n, norms
        n += len(block)
        if n > horizon:
            return


def power_norms(cfg: JungckConfig, horizon: int) -> np.ndarray:
    """Spectral norms of t^n for n = 0..horizon (inf once a power overflows)."""
    norms = np.full(horizon + 1, math.inf)
    try:
        for n, block in _norm_blocks(cfg.pair, horizon):
            norms[n:n + len(block)] = block
    except NonFiniteError:
        pass  # the overflowed power and every later one keep norm inf
    return norms


@dataclass(frozen=True)
class StabilityConstants:
    """Finite-horizon surrogates for the certificate constants.

    k1, k2 cap |a_n|*||t^n|| and |b_n|*||t^n|| over the tail; k1p, k2p cap
    |1-a_n|*||t^n|| and |1-b_n|.  m_bound caps the per-step y-vs-z
    amplification over the whole horizon.  powers_read counts the powers
    of t whose norms the constants took (at most horizon + 1), t^0 and t^1
    included, though their norms need no SVD; it takes no part in equality.
    """

    k1: float
    k2: float
    k1p: float
    k2p: float
    m_bound: float
    horizon: int
    tail_start: int
    powers_read: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (0 <= self.tail_start < self.horizon):
            raise ValueError("need 0 <= tail_start < horizon")


def compute_constants(cfg: JungckConfig, horizon: int, tail_start: int = 0) -> StabilityConstants:
    """Empirical tail suprema of the schedule-weighted power norms.

    Maxima over n in [tail_start, horizon] stand in for the limit-superior
    hypotheses; with tail_start 0 every certified inequality holds from the
    first step, which is what the soundness sweeps rely on.  A power whose
    weight is 0 adds 0, also when its norm is inf.

    The maxima are folded block by block while the powers are produced, and
    the stream stops as soon as no later power can raise any of them, so
    the constants are those of the full stream, bit for bit.  The norms of
    t^0 (1) and t^1 (``pair.t_norm``) come without an SVD, with the SVD's
    bits (see ``_norm_blocks``), so a d = 300 map that stops after t^2
    runs one 300x300 SVD.

    The exit rests on submultiplicativity: once c = ||t^m|| < 1, every
    n >= m is qm + r with q >= 1 and r < m, so ||t^n|| <= c * G with
    G = max_{r<m} ||t^r|| (G >= ||t^0|| = 1).  The smallest such c * G
    seen so far caps every later power; the stream stops after power n
    when, for each of k1, k2 and k1p, the largest weight from n + 1 on is
    0, or times the cap times (1 + EXIT_SLACK) stays below the maximum so
    far.

    EXIT_SLACK covers rounding because the cap comes from computed norms
    of computed powers.  The SVD returns each norm to a relative error of a
    few d*eps.  Each computed power is t times the one before it, off by at
    most about d^2 * (eps*||t||*||previous power|| + the smallest
    subnormal) in norm, so up to the horizon the computed powers stay
    within 3*horizon*d^2*(eps*||t||*G + subnormal)*G of a sequence for which
    the cap is exact.  An m sets the cap only when that excess is at most
    half of EXIT_SLACK*c*G; for the maps certified here it is orders of
    magnitude smaller (about 2e-8 of c*G at d = 300, horizon 300,
    ||t|| < 1 and c = ||t||).
    """
    if horizon < tail_start + 10:
        raise ValueError("horizon must be at least tail_start + 10")
    a = cfg.a.array(horizon + 1)
    b = cfg.b.array(horizon + 1)
    mu_inv = 1.0 / cfg.pair.s_min_modulus
    s_norm = cfg.pair.s_norm

    # rows: the weights of k1, k2 and k1p, zero before the tail
    weights = np.abs(np.stack([a, b, 1.0 - a]))
    weights[:, :tail_start] = 0.0
    # rest[:, n]: the largest weight at n or later (0 past the horizon)
    rest = np.zeros((3, horizon + 2))
    rest[:, :-1] = np.maximum.accumulate(weights[:, ::-1], axis=1)[:, ::-1]
    # the cap's rounding excess, over G, is at most excess_t * G + excess_0
    excess_t = 3.0 * horizon * cfg.dim ** 2 * np.finfo(float).eps * cfg.pair.t_norm
    excess_0 = 3.0 * horizon * cfg.dim ** 2 * np.finfo(float).smallest_subnormal

    peaks = np.zeros(3)
    cap = math.inf
    g = 0.0  # the largest norm read so far
    read = 0
    try:
        for n, norms in _norm_blocks(cfg.pair, horizon):
            read = n + len(norms)
            w = weights[:, n:read]
            running = np.maximum.accumulate(np.concatenate(([g], norms)))
            before, g = running[:-1], running[-1]  # before[j]: G for power n + j
            # a product past the float range is inf: a constant of inf, an excess that is not usable
            with np.errstate(over="ignore"):
                # a zero weight prunes its power: 0, not 0 * inf = nan
                products = np.multiply(w, norms, out=np.zeros(w.shape), where=w > 0)
                usable = (norms < 1.0) & (excess_t * before + excess_0 <= 0.5 * EXIT_SLACK * norms)
            peaks = np.maximum(peaks, products.max(axis=1))
            if usable.any():
                cap = min(cap, float((norms[usable] * before[usable]).min()))
            live = rest[:, read] > 0
            if np.all(rest[live, read] * (cap * (1.0 + EXIT_SLACK)) < peaks[live]):
                break
    except NonFiniteError:
        # the overflowed power and every later one have norm inf
        peaks = np.maximum(peaks, np.where(rest[:, read] > 0, math.inf, 0.0))
    k1, k2, k1p = (float(p) for p in peaks)
    k2p = float(np.max(np.abs(1.0 - b[tail_start:])))
    m_bound = float(np.max(mu_inv * (np.abs(1.0 - b) * s_norm + np.abs(b))))
    return StabilityConstants(
        k1=k1, k2=k2, k1p=k1p, k2p=k2p, m_bound=m_bound,
        horizon=horizon, tail_start=tail_start, powers_read=read,
    )


@dataclass
class CertificateResult:
    """Outcome of one certificate: does it apply, and with how much slack."""

    name: str
    applies: bool
    margin: float
    details: dict = field(default_factory=dict)


def check_property_i(constants: StabilityConstants, mu_s: float) -> CertificateResult:
    """Tail-contraction certificate from the k-constants.

    Applies when k2p + k2/mu <= 1 and (k1p + k1*(k2p + k2/mu))/mu <= 1;
    the details also report the cruder sufficient pair that replaces the
    second bound with (k1p + k1)/mu <= 1.
    """
    mu_inv = 1.0 / mu_s
    y_factor = constants.k2p + mu_inv * constants.k2
    # k1 = 0 drops the coupling term, also when y_factor is inf (0 * inf = nan)
    z_factor = mu_inv * (constants.k1p + (constants.k1 * y_factor if constants.k1 else 0.0))
    simple = mu_inv * (constants.k1p + constants.k1)
    margin = min(1.0 - y_factor, 1.0 - z_factor)
    return CertificateResult(
        name="i",
        applies=(y_factor <= 1.0 and z_factor <= 1.0),
        margin=float(margin),
        details={
            "y_factor": float(y_factor),
            "z_factor": float(z_factor),
            "simple_pair_applies": bool(y_factor <= 1.0 and simple <= 1.0),
            "simple_z_factor": float(simple),
        },
    )


def check_property_ii_iii(cfg: JungckConfig, horizon: int) -> tuple[CertificateResult, CertificateResult]:
    """Uniform per-step certificates requiring ||t|| <= 1.

    The first applies when the blended per-step growth factor stays at or
    below 1 for every n up to the horizon; the second when the y-bound
    constant keeps |1-a_n| + |a_n|*M within the minimum modulus.
    """
    mu = cfg.pair.s_min_modulus
    mu_inv = 1.0 / mu
    s_norm = cfg.pair.s_norm
    t_norm = cfg.pair.t_norm
    a = cfg.a.array(horizon + 1)
    b = cfg.b.array(horizon + 1)

    y_amp = mu_inv * (np.abs(1.0 - b) * s_norm + np.abs(b))
    m_bound = float(np.max(y_amp))
    step_factor = mu_inv * (np.abs(1.0 - a) + mu_inv * np.abs(a) * (np.abs(1.0 - b) * s_norm + np.abs(b)))
    max_step_factor = float(np.max(step_factor))
    slack_ii = min(1.0 - t_norm, 1.0 - max_step_factor)
    res_ii = CertificateResult(
        name="ii",
        applies=(t_norm <= 1.0 and max_step_factor <= 1.0),
        margin=float(slack_ii),
        details={"t_norm": float(t_norm), "max_step_factor": max_step_factor, "m_bound": m_bound},
    )

    max_lhs = float(np.max(np.abs(1.0 - a) + np.abs(a) * m_bound))
    slack_iii = min(1.0 - t_norm, mu - max_lhs)
    res_iii = CertificateResult(
        name="iii",
        applies=(t_norm <= 1.0 and max_lhs <= mu),
        margin=float(slack_iii),
        details={"t_norm": float(t_norm), "max_lhs": max_lhs, "m_bound": m_bound, "mu": float(mu)},
    )
    return res_ii, res_iii


def _tail_close_to_one(sched: Schedule, horizon: int, tol: float) -> tuple[bool, float]:
    if not tol >= 0:  # NaN fails it too
        raise ValueError(f"tail_tol must be >= 0, got {tol}")
    vals = sched.array(horizon + 1)[horizon // 2:]
    dev = float(np.max(np.abs(vals - 1.0)))
    return dev <= tol, dev


def check_property_iv_v(
    cfg: JungckConfig, horizon: int, tol: float = 0.01
) -> tuple[CertificateResult, CertificateResult]:
    """Vanishing-power certificates: ||t|| < 1 plus a schedule tending to 1.

    The limit hypothesis is replaced by "within tol of 1 over the back half
    of the horizon".  An applying certificate predicts convergence to zero.
    """
    t_norm = cfg.pair.t_norm
    contractive = t_norm < 1.0

    out = []
    for name, sched in (("iv", cfg.a), ("v", cfg.b)):
        ok, dev = _tail_close_to_one(sched, horizon, tol)
        out.append(
            CertificateResult(
                name=name,
                applies=(contractive and ok),
                margin=float(min(1.0 - t_norm, tol - dev)),
                details={"t_norm": float(t_norm), "tail_deviation": dev, "tail_tol": tol},
            )
        )
    return out[0], out[1]


@dataclass
class StabilityReport:
    """Certificate outcomes for one configuration, plus the simulation verdict.

    ``predicted`` is "converges-to-zero" only when a vanishing-power
    certificate applies, "bounded" when any per-step certificate applies,
    else "no-certificate".  ``simulation_agrees`` stays None until
    ``cross_validate`` runs (or when nothing applies: the certificates are
    sufficient, not necessary, so there is nothing to contradict).
    """

    cfg: JungckConfig
    constants: StabilityConstants
    properties: dict
    predicted: str
    horizon: int
    tail_tol: float
    simulation_agrees: Optional[bool] = None
    simulation_notes: list = field(default_factory=list)

    def applying(self) -> list[str]:
        return [k for k, v in self.properties.items() if v.applies]


def certify(
    cfg: JungckConfig,
    horizon: int = 200,
    tail_start: int = 0,
    tail_tol: float = 0.01,
) -> StabilityReport:
    """Run every certificate on a matrix configuration; raises ``ValueError``
    unless ``tail_tol >= 0``."""
    constants = compute_constants(cfg, horizon, tail_start)
    res_i = check_property_i(constants, cfg.pair.s_min_modulus)
    res_ii, res_iii = check_property_ii_iii(cfg, horizon)
    res_iv, res_v = check_property_iv_v(cfg, horizon, tail_tol)
    props = {r.name: r for r in (res_i, res_ii, res_iii, res_iv, res_v)}
    if res_iv.applies or res_v.applies:
        predicted = "converges-to-zero"
    elif res_i.applies or res_ii.applies or res_iii.applies:
        predicted = "bounded"
    else:
        predicted = "no-certificate"
    return StabilityReport(
        cfg=cfg, constants=constants, properties=props, predicted=predicted,
        horizon=horizon, tail_tol=tail_tol,
    )


def cross_validate(report: StabilityReport, trace: IterationTrace) -> StabilityReport:
    """Check a simulated trace against what the applying certificates imply.

    Bounded certificates promise sup_{n>=1} ||z_n|| <= ||z_1|| and the
    per-step y-vs-z amplification bound; vanishing-power certificates
    promise ||z_end|| < 1e-6 * ||z_0||.  When only the tail certificate
    applies and the constants were computed with a positive tail start,
    its promises are checked from the tail start on (they say nothing
    about earlier steps).  Sets ``simulation_agrees`` (None when no
    certificate applies) and returns the report.
    """
    cfg = report.cfg
    if trace.dim != cfg.dim or trace.steps != cfg.steps:
        raise TraceMismatchError("trace shape does not match the certified configuration")
    n = trace.n_raw
    if n and not (
        np.array_equal(trace.a_vals, cfg.a.array(n)) and np.array_equal(trace.b_vals, cfg.b.array(n))
    ):
        raise TraceMismatchError("trace schedules differ from the certified configuration")

    applying = report.applying()
    if not applying:
        report.simulation_agrees = None
        report.simulation_notes = ["no certificate applies; nothing to check"]
        return report

    zn = trace.z_norms
    yn = safe_row_norms(trace.y)
    checks: list[bool] = []
    notes: list[str] = []

    bounded = [p for p in applying if p in ("i", "ii", "iii")]
    if bounded and n >= 2:
        c = report.constants
        # (ii)/(iii) bind per step from n=0; (i) from the constants' tail start
        if "i" in bounded and c.tail_start == 0:
            start = 0
            amp = c.k2p + c.k2 / cfg.pair.s_min_modulus
        elif "ii" in bounded or "iii" in bounded:
            start = 0
            amp = c.m_bound
        else:
            start = c.tail_start
            amp = c.k2p + c.k2 / cfg.pair.s_min_modulus
        ref = max(start, 1)
        if ref < n:
            ok_z = bool(np.all(zn[ref:] <= zn[ref] * (1.0 + CROSS_VALIDATE_SLACK) + NORM_FLOOR))
            checks.append(ok_z)
            notes.append(f"sup ||z_n||, n>={ref}, vs ||z_{ref}||: {'ok' if ok_z else 'VIOLATED'}")
        ok_y = bool(np.all(yn[start:] <= zn[start:] * (amp + CROSS_VALIDATE_SLACK) + NORM_FLOOR))
        checks.append(ok_y)
        notes.append(f"||y_n|| <= {amp:.6g} * ||z_n|| from n={start}: {'ok' if ok_y else 'VIOLATED'}")

    if ("iv" in applying or "v" in applying) and n >= 1:
        ok_zero = bool(zn[-1] < 1e-6 * zn[0]) if zn[0] > 0 else bool(zn[-1] == 0.0)
        checks.append(ok_zero)
        notes.append(f"final ||z||/||z_0|| = {zn[-1] / zn[0] if zn[0] else 0.0:.3e}: {'ok' if ok_zero else 'VIOLATED'}")

    if trace.diverged:
        checks.append(False)
        notes.append("trace diverged under a certified configuration")

    report.simulation_agrees = all(checks) if checks else None
    report.simulation_notes = notes
    return report


@dataclass
class PositivityReport:
    """Checkable pieces of the global-stability constraint set.

    Range/limit demands on the schedules and entrywise nonnegativity of
    s^-1 and t are pass/fail.  The remaining clauses get no verdict:
    power-norm decay relative to iterate size is reported as a raw ratio
    stream, and the derived-schedule identity, whose summability demands
    are mutually inconsistent, only as a note.
    """

    b_in_range: bool
    b_tends_to_one: bool
    b_tail_deviation: float
    a_in_range: bool
    a_tail_limit: Optional[float]  # 0.0 or 1.0 when the tail settles there
    s_inv_nonneg: bool
    t_nonneg: bool
    min_s_inv_entry: float
    min_t_entry: float
    little_o_ratios: Optional[np.ndarray] = None
    notes: list = field(default_factory=list)

    @property
    def passes(self) -> bool:
        return (
            self.b_in_range and self.b_tends_to_one and self.a_in_range
            and self.a_tail_limit is not None and self.s_inv_nonneg and self.t_nonneg
        )


def check_positivity_constraints(
    cfg: JungckConfig,
    horizon: int,
    tol: float = 0.01,
    trace: IterationTrace | None = None,
) -> PositivityReport:
    """Evaluate the global-stability constraint set at a finite horizon.

    Checks: b in (0, 1] tending to 1; a in [0, 1] with tail limit 0 or 1;
    entrywise nonnegativity of s^-1 and t (sufficient for every composite
    power to preserve the nonnegative orthant).  With a trace, also emits
    the ||t^n|| / ||y_n|| diagnostic stream (inf where y_n = 0 or the ratio
    overflows).
    """
    a = cfg.a.array(horizon + 1)
    b = cfg.b.array(horizon + 1)

    b_in_range = bool(np.all((b > 0.0) & (b <= 1.0)))
    _, b_dev = _tail_close_to_one(cfg.b, horizon, tol)
    a_in_range = bool(np.all((a >= 0.0) & (a <= 1.0)))
    tail = a[horizon // 2:]
    if np.max(np.abs(tail - 1.0)) <= tol:
        a_tail_limit: Optional[float] = 1.0
    elif np.max(np.abs(tail)) <= tol:
        a_tail_limit = 0.0
    else:
        a_tail_limit = None

    min_s_inv = float(np.min(cfg.pair.s_inverse))
    min_t = float(np.min(cfg.pair.t.matrix))

    ratios = None
    if trace is not None and trace.n_raw:
        tn = power_norms(cfg, trace.n_raw - 1)
        yn = safe_row_norms(trace.y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.where(yn > 0, tn / yn, np.inf)

    notes = [
        "power-decay-vs-iterate clauses are diagnostics only (no verdict)",
        "derived-schedule clause demands a summable alpha with divergent partial sums; "
        "mutually inconsistent, reported without a verdict",
    ]

    return PositivityReport(
        b_in_range=b_in_range,
        b_tends_to_one=(b_dev <= tol),
        b_tail_deviation=b_dev,
        a_in_range=a_in_range,
        a_tail_limit=a_tail_limit,
        s_inv_nonneg=(min_s_inv >= 0.0),
        t_nonneg=(min_t >= 0.0),
        min_s_inv_entry=min_s_inv,
        min_t_entry=min_t,
        little_o_ratios=ratios,
        notes=notes,
    )
