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
from .errors import InvalidArgumentError, NonFiniteError, TraceMismatchError
from .model import IterationTrace, OperatorPair, Schedule, safe_row_norms

#: slack used when replaying certified bounds against simulation
CROSS_VALIDATE_SLACK = 1e-6
#: absolute slack for norm bounds: below the smallest normal float an iterate
#: is rounding noise a few subnormal steps wide, so no relative bound holds there
NORM_FLOOR = float(np.finfo(float).tiny)
#: relative slack of the bound ||t||^n, per power of t and per d^2 eps; see ``_power_bounds``
POWER_SLACK = 32.0


def _norms(pair: OperatorPair, index: np.ndarray, block: np.ndarray, first: int) -> tuple[np.ndarray, int]:
    """Spectral norms of the computed powers t^index[j] = ``block[index[j] -
    first]`` (``index`` ascending), and how many SVDs they took.

    Two norms are known without an SVD, with the bits an SVD would give:
    ||t^0|| = ||I|| = 1, since the Householder reduction of I reflects
    nothing and leaves a diagonal of ones, and ||t^1|| = ``pair.t_norm``,
    the SVD of ``t`` itself, whenever the computed t^1 = t @ I is ``t`` bit
    for bit (the product turns a -0.0 entry into +0.0, and the SVD of such
    a matrix can differ in the last bit, so then t^1 is SVD'd).  The other
    powers go through one stacked SVD, which treats each matrix on its own;
    only they are gathered from the block.
    """
    norms = np.empty(len(index))
    known = 0  # t^0 and t^1, when asked for, come first
    if known < len(index) and index[known] == 0:
        norms[known] = 1.0
        known += 1
    if (known < len(index) and index[known] == 1
            and np.array_equal(block[1 - first].view(np.uint64), pair.t.matrix.view(np.uint64))):
        norms[known] = pair.t_norm
        known += 1
    if known < len(index):
        # singular values come largest first
        norms[known:] = np.linalg.svd(block[index[known:] - first], compute_uv=False)[:, 0]
    return norms, len(index) - known


def _power_bounds(pair: OperatorPair, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """``(bound, excess)`` for n = 0..horizon: ``bound[n]`` is at least the
    SVD norm of the computed t^n, and ``excess[n] = bound[n] - ||t||^n``.

    The bound is ``||t||^n (1 + POWER_SLACK (n + 1) d^2 eps) + 2 (n + 1) d^2
    NORM_FLOOR``, with ``||t||`` the cached ``pair.t_norm``; see
    ``compute_constants`` for why it holds.  It is inf where the relative
    slack passes 1, and where 2 d times it passes the largest float, since
    there a sum inside the product T @ T^(n-1) could overflow.
    """
    d = pair.dim
    t_norm = pair.t_norm
    n1 = np.arange(1.0, horizon + 2.0)  # n + 1
    rel = (POWER_SLACK * d * d * float(np.finfo(float).eps)) * n1
    # a power below NORM_FLOOR counts as 0, which the floor term covers (pow is slow on subnormals)
    count = horizon + 1
    if 0.0 < t_norm < 1.0:
        count = min(count, int(math.log(NORM_FLOOR) / math.log(t_norm)) + 2)
    power = np.zeros(horizon + 1)
    with np.errstate(over="ignore"):
        np.power(t_norm, n1[:count] - 1.0, out=power[:count])
        excess = power * rel + (2.0 * d * d * NORM_FLOOR) * n1
        bound = power + excess
    if rel[-1] > 1.0 or t_norm > 1.0:
        bound[(rel > 1.0) | (bound > float(np.finfo(float).max) / (2 * d))] = math.inf
    return bound, excess


def _seeds(pair: OperatorPair, weights: np.ndarray, wb: np.ndarray, excess: np.ndarray) -> tuple[np.ndarray, int]:
    """Lower bounds on the full stream's maxima of ``weights * norms``, one
    per row, from the power where the row's bound ``wb`` peaks; and how many
    SVDs they took.

    At that power n, X = t^n is formed by repeated squaring, off the stream,
    and the computed t^n of the stream has an SVD norm of at least
    ||X|| - 2 excess[n] (see ``compute_constants``).  A seed costs one SVD,
    and it can only spare the SVDs of t^2 .. t^(n-1) (t^0 and t^1 need
    none), so a row is seeded only when n >= 4, and only when its largest
    possible value, w_n (||t||^n - excess[n]) rounded up, is above
    ``wb[m]`` for some m in [2, n): a power whose bound is not below the
    seed is SVD'd with or without it.  A row with no seed gets 0.
    """
    seeds = np.zeros(len(weights))
    svds = 0
    targets = wb.argmax(axis=1)
    for n in sorted(set(targets.tolist())):
        if n < 4 or not math.isfinite(wb[:, n].max()):
            continue
        rows = targets == n
        with np.errstate(over="ignore", invalid="ignore"):
            best = weights[rows, n] * max(float(np.power(pair.t_norm, float(n))) - float(excess[n]), 0.0)
            rows[rows] = best * (1.0 + 1e-12) > wb[rows, 2:n].min(axis=1)  # room for the bound's roundings
            if not rows.any():
                continue
            x = np.linalg.matrix_power(pair.t.matrix, n)
        if not np.isfinite(x).all():
            continue
        low = float(np.linalg.svd(x[None], compute_uv=False)[0, 0]) - 2.0 * float(excess[n])
        svds += 1
        seeds[rows] = weights[rows, n] * max(low, 0.0)
    return seeds, svds


def _y_amplification(pair: OperatorPair, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``(growth, m_bound)``: growth[n] = |1-b_n| ||s|| + |b_n|, and m_bound,
    the largest growth[n] / mu, bounds the per-step y-vs-z amplification
    ||y_n|| / ||z_n|| while ||t^n|| <= 1."""
    growth = np.abs(1.0 - b) * pair.s_norm + np.abs(b)
    return growth, float(np.max((1.0 / pair.s_min_modulus) * growth))


@dataclass(frozen=True)
class StabilityConstants:
    """Finite-horizon surrogates for the certificate constants.

    k1, k2 cap |a_n|*||t^n|| and |b_n|*||t^n|| over the tail; k1p, k2p cap
    |1-a_n|*||t^n|| and |1-b_n|.  m_bound caps the per-step y-vs-z
    amplification over the whole horizon.  powers_read counts the powers
    of t the constants read (at most horizon + 1), t^0 and t^1 included,
    though t^0 = I is read without being formed, and svds_run the SVDs
    they took; neither takes part in equality.
    """

    k1: float
    k2: float
    k1p: float
    k2p: float
    m_bound: float
    horizon: int
    tail_start: int
    powers_read: int = field(default=0, compare=False)
    svds_run: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (0 <= self.tail_start < self.horizon):
            raise InvalidArgumentError("need 0 <= tail_start < horizon")


class ConstantsFold:
    """The certificate constants of ``compute_constants``, folded over the
    stream of powers of t one block at a time.

    Set-up does everything that needs no power: it evaluates the schedules
    through the horizon, takes the bounds, weights, seeds and suffix maxima,
    and takes t^0 = I.  Then, while ``wants`` is true, ``feed`` takes the
    stream's blocks in order, t^0 first; ``overflow`` is called when the
    stream raises ``NonFiniteError`` in place of a block; and
    ``constants()`` gives the result.

    The fold drives that protocol itself: ``powers()`` is the stream of
    ``matrix_power_blocks``, each block fed before it is handed on (and so
    before the next one, which may overwrite it, is formed), and
    ``read_on`` reads on from it while the fold still wants powers.
    ``compute_constants`` only reads on; a CLI jungck run hands
    ``powers()`` to ``engine.run``, which steps with it and then reads on.
    """

    def __init__(self, cfg: JungckConfig, horizon: int, tail_start: int = 0):
        if horizon < tail_start + 10:
            raise InvalidArgumentError("horizon must be at least tail_start + 10")
        self.pair, self.horizon, self.tail_start = cfg.pair, horizon, tail_start
        a = cfg.a.prefix(horizon + 1)
        self.b = cfg.b.prefix(horizon + 1)
        # rows: the weights of k1, k2 and k1p, zero before the tail
        weights = np.abs(np.stack([a, self.b, 1.0 - a]))
        weights[:, :tail_start] = 0.0
        bound, excess = _power_bounds(self.pair, horizon)
        with np.errstate(over="ignore"):  # a product past the float range is inf
            # a zero weight prunes its power: 0, not 0 * inf = nan (an inf bound can only come last)
            wb = weights * bound if bound[-1] < math.inf else np.multiply(
                weights, bound, out=np.zeros(weights.shape), where=weights > 0)
        seeds, self.svds = _seeds(self.pair, weights, wb, excess)
        self.weights, self.wb = weights, wb
        self.later = np.maximum.accumulate(wb[:, ::-1], axis=1)[:, ::-1]  # later[:, n]: max of wb[:, n:]
        self.peaks = np.zeros(3)
        self.lows = np.nextafter(seeds, -math.inf)
        # w_n B_n raises a maximum when it is above the maximum so far and not below the seed
        self.above = np.maximum(self.peaks, self.lows)
        # t^0 = I has norm 1 (see _norms), so it is taken without forming it,
        # and the stream is wanted only when a later power can raise a maximum
        if (wb[:, 0] > self.above).any():
            self.peaks = np.maximum(self.peaks, weights[:, 0])  # w * 1, with w >= 0
            self.above = np.maximum(self.peaks, self.lows)
        self.read = 1  # powers read, t^0 included
        self.fed = 0  # powers fed, the index of the next block's first power
        self.wants = bool((self.later[:, 1] > self.above).any())

    def feed(self, block: np.ndarray) -> None:
        """Fold in the next block of the stream; powers past the horizon are left out."""
        n = self.fed
        self.fed += len(block)
        if n == 0:
            return  # t^0, the stream's first block, taken at set-up
        block = block[:self.horizon + 1 - n]
        read = n + len(block)
        here = (self.wb[:, n:read] > self.above[:, None]).any(axis=0)
        if here.any():
            index = np.flatnonzero(here) + n
            norms, count = _norms(self.pair, index, block, n)
            self.svds += count
            w = self.weights[:, index]
            with np.errstate(over="ignore"):  # a product past the float range is inf
                products = np.multiply(w, norms, out=np.zeros(w.shape), where=w > 0)
            self.peaks = np.maximum(self.peaks, products.max(axis=1))
            self.above = np.maximum(self.peaks, self.lows)
        self.read = read
        self.wants = read <= self.horizon and bool((self.later[:, read] > self.above).any())

    def overflow(self) -> None:
        """The power after the last one read overflowed: it and every later
        one have norm inf."""
        weighted = self.weights[:, self.read:].max(axis=1, initial=0.0) > 0
        self.peaks = np.maximum(self.peaks, np.where(weighted, math.inf, 0.0))
        self.wants = False

    def powers(self) -> Iterator[np.ndarray]:
        """The blocks of ``matrix_power_blocks`` of t, each fed before it is
        yielded while the fold wants powers.  An overflow of the stream is
        passed to ``overflow`` while the fold wants powers, and then raised."""
        try:
            for block in matrix_power_blocks(self.pair.t):
                if self.wants:
                    self.feed(block)
                yield block
        except NonFiniteError:
            if self.wants:
                self.overflow()
            raise

    def read_on(self, powers: Iterator[np.ndarray]) -> None:
        """Read on from ``powers``, a stream of ``powers()``, while the fold
        wants powers; an overflow ends it."""
        try:
            while self.wants:
                next(powers)
        except NonFiniteError:
            pass  # passed to overflow() by the stream

    def constants(self) -> StabilityConstants:
        """The constants of the powers fed so far: all it wanted, once ``wants`` is false."""
        k1, k2, k1p = (float(p) for p in self.peaks)
        k2p = float(np.max(np.abs(1.0 - self.b[self.tail_start:])))
        return StabilityConstants(
            k1=k1, k2=k2, k1p=k1p, k2p=k2p, m_bound=_y_amplification(self.pair, self.b)[1],
            horizon=self.horizon, tail_start=self.tail_start, powers_read=self.read, svds_run=self.svds,
        )


def compute_constants(cfg: JungckConfig, horizon: int, tail_start: int = 0) -> StabilityConstants:
    """Empirical tail suprema of the schedule-weighted power norms.

    Maxima over n in [tail_start, horizon] stand in for the limit-superior
    hypotheses; with tail_start 0 every certified inequality holds from the
    first step, which is what the soundness sweeps rely on.  A power whose
    weight is 0 adds 0, also when its norm is inf.

    The constants are those of the full stream of powers, bit for bit, but
    the stream stops as soon as no later power can raise a maximum, and a
    power's SVD is skipped when its norm cannot raise one.  Both rest on
    an upper bound B_n on the SVD norm of the computed t^n, weighted:
    w_n B_n for each of k1, k2 and k1p (w = |a|, |b|, |1-a|, 0 before
    tail_start).  Power n is SVD'd only when, for some constant, w_n B_n is
    above the maximum so far and not below that constant's seed (a lower
    bound on its final maximum, below).  The suffix maxima of w_n B_n are
    taken once, and after each block the stream stops when none of them
    is above its constant's maximum so far.  t^0 and t^1 need no SVD (see
    ``_norms``), and t^0 is taken before the stream starts, which it does
    only when a later power can raise a maximum: a contractive d = 300 map
    whose maxima sit at t^0 forms no power and runs no SVD, and reads one
    power, t^0.  A map with ||t|| just below 1 whose k2 peaks at the
    horizon forms every power but SVDs only the seed's X and the few
    powers next to the peak.

    B_n is ``||t||^n`` widened for rounding (``_power_bounds``): with
    u = eps/2, each product T @ P is off by at most d u |T||P| + d
    NORM_FLOOR per entry, so by d^2 u ||T|| ||P|| + d^2 NORM_FLOOR in norm;
    the SVD of a matrix is exact for one within c d^2 u of it in relative
    norm; so the SVD norm of the computed t^n is at most
    ||t||^n (1 + (1 + 2c) d^2 u)^n (1 + c d^2 u) + about
    2 (n + 1) d^2 NORM_FLOOR.  POWER_SLACK = 32 covers that for c up to 15,
    with the roundings of the bound itself, while the slack stays below 1.
    Each seed takes X = t^n by repeated squaring at the power n where
    w_n B_n peaks; any product tree of n factors of t stays as close to the
    exact T^n as the stream does, so the stream's computed t^n has an SVD
    norm of at least ||X|| - 2 (B_n - ||t||^n), and w_n times that is a
    lower bound on the final maximum.  For ||t|| > 1, B_n grows with n, so
    a map whose powers grow and then decay is read to the horizon unless
    its weights fall.

    The computation is a ``ConstantsFold`` that reads its own stream.  The
    CLI's report states ``powers_read`` (the powers of t the constants
    read, t^0 included) and ``svds_run``.
    """
    fold = ConstantsFold(cfg, horizon, tail_start)
    fold.read_on(fold.powers())
    return fold.constants()


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
    t_norm = cfg.pair.t_norm
    a = cfg.a.prefix(horizon + 1)
    growth, m_bound = _y_amplification(cfg.pair, cfg.b.prefix(horizon + 1))
    step_factor = mu_inv * (np.abs(1.0 - a) + mu_inv * np.abs(a) * growth)
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
        raise InvalidArgumentError(f"tail_tol must be >= 0, got {tol}")
    vals = sched.prefix(horizon + 1)[horizon // 2:]
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
    constants: Optional[StabilityConstants] = None,
) -> StabilityReport:
    """Run every certificate on a matrix configuration; raises ``InvalidArgumentError``
    unless ``tail_tol >= 0``.  ``constants``, when given, are the
    ``compute_constants`` of this config, horizon and tail start, taken
    elsewhere (by a ``ConstantsFold`` fed the powers of a run)."""
    if constants is None:
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
        np.array_equal(trace.a_vals, cfg.a.prefix(n)) and np.array_equal(trace.b_vals, cfg.b.prefix(n))
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
    """The checkable pieces of the global-stability constraint set, each
    pass/fail: range and limit demands on the schedules, and entrywise
    nonnegativity of s^-1 and t.  The set's other clauses, power decay
    against iterate size and the derived-schedule identity, have no check
    (see the README)."""

    b_in_range: bool
    b_tends_to_one: bool
    b_tail_deviation: float
    a_in_range: bool
    a_tail_limit: Optional[float]  # 0.0 or 1.0 when the tail settles there
    s_inv_nonneg: bool
    t_nonneg: bool
    min_s_inv_entry: float
    min_t_entry: float


def check_positivity_constraints(cfg: JungckConfig, horizon: int, tol: float = 0.01) -> PositivityReport:
    """Evaluate the checkable clauses of the global-stability constraint set
    at a finite horizon: b in (0, 1] tending to 1; a in [0, 1] with tail
    limit 0 or 1; entrywise nonnegativity of s^-1 and t (sufficient for
    every composite power to preserve the nonnegative orthant)."""
    a = cfg.a.prefix(horizon + 1)
    b = cfg.b.prefix(horizon + 1)

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
    )
