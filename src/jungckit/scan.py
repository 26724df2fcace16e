"""Randomized certificate/soundness sweep over matrix configurations.

Samples seeded random configurations from families with a realistic chance
of certifying (contractive update maps, schedules drifting to 1, solved
maps with controlled minimum modulus), certifies each, simulates it, and
counts certificates whose promise the simulation breaks.  A sound
implementation reports zero violations on any seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import JungckConfig, run
from .errors import InvalidArgumentError
from .model import GatePolicy, Operator, Schedule, make_operator_pair, spectral_norm
from .stability import NORM_FLOOR, certify, cross_validate

MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class ScanSpec:
    """Shape of one sweep: how many configs, their size, and the rng seed."""

    count: int = 100
    dim: int = 5
    steps: int = 300
    horizon: int = 300
    seed: int = 12345
    mu_range: tuple = (0.8, 2.5)
    t_norm_range: tuple = (0.05, 0.9)
    tail_tol: float = 0.01

    def __post_init__(self):
        if self.count < 1 or self.dim < 1 or self.steps < 3:
            raise InvalidArgumentError("count >= 1, dim >= 1 and steps >= 3 required")
        if self.horizon < 10:
            raise InvalidArgumentError("horizon must be >= 10")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")
        if not self.tail_tol >= 0:  # NaN fails it too
            raise InvalidArgumentError(f"tail_tol must be >= 0, got {self.tail_tol}")
        # each range is sampled by rng.uniform, which needs finite ends; NaN fails every test
        (mu_lo, mu_hi), (t_lo, t_hi) = self.mu_range, self.t_norm_range
        if not 0 < mu_lo <= mu_hi < math.inf:
            raise InvalidArgumentError(f"mu_range must be finite with 0 < low <= high, got {self.mu_range}")
        if not 0 <= t_lo <= t_hi < math.inf:
            raise InvalidArgumentError(f"t_norm_range must be finite with 0 <= low <= high, got {self.t_norm_range}")


@dataclass
class ScanOutcome:
    index: int
    certified: list
    predicted: str
    simulation_agrees: Optional[bool]
    monotone_ok: Optional[bool]
    final_ratio: Optional[float]
    notes: list = field(default_factory=list)

    @property
    def violation(self) -> bool:
        if not self.certified:
            return False
        if self.simulation_agrees is False:
            return True
        return self.monotone_ok is False


@dataclass
class ScanResult:
    spec: ScanSpec
    outcomes: list

    @property
    def certified_count(self) -> int:
        return sum(1 for o in self.outcomes if o.certified)

    @property
    def violations(self) -> list:
        return [o for o in self.outcomes if o.violation]

    def counts_by_property(self) -> dict:
        counts = {k: 0 for k in ("i", "ii", "iii", "iv", "v", "none")}
        for o in self.outcomes:
            if not o.certified:
                counts["none"] += 1
            for p in o.certified:
                counts[p] += 1
        return counts


def sample_operators(rng: np.random.Generator, spec: ScanSpec):
    """Random matrix pair: t scaled to a target norm, s built from chosen
    singular values so its minimum modulus is controlled exactly."""
    d = spec.dim
    raw = rng.normal(size=(d, d))
    t = raw * (rng.uniform(*spec.t_norm_range) / spectral_norm(raw))
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    svals = rng.uniform(*spec.mu_range, size=d)
    s = q1 @ np.diag(svals) @ q2.T
    return Operator.from_matrix(s), Operator.from_matrix(t)


def sample_config(rng: np.random.Generator, spec: ScanSpec) -> JungckConfig:
    """One random configuration from the mixed schedule families."""
    s_op, t_op = sample_operators(rng, spec)
    kind = int(rng.integers(0, 4))
    if kind == 0:  # constant blends, b biased high
        a = Schedule.constant(float(rng.uniform(0, 1)))
        b = Schedule.constant(float(rng.uniform(0.8, 1.0)))
    elif kind == 1:  # b drifting to 1
        a = Schedule.constant(float(rng.uniform(0, 1)))
        b = Schedule.one_minus_inv(k=int(rng.integers(2, 8)))
    elif kind == 2:  # a drifting to 1
        a = Schedule.one_minus_inv(k=int(rng.integers(2, 8)))
        b = Schedule.constant(float(rng.uniform(0, 1)))
    else:  # fully random constants; often uncertifiable, kept for coverage
        a = Schedule.constant(float(rng.uniform(0, 1)))
        b = Schedule.constant(float(rng.uniform(0, 1)))
    z0 = rng.normal(size=spec.dim)
    return JungckConfig(
        pair=make_operator_pair(s_op, t_op),
        a=a,
        b=b,
        gates_z=GatePolicy.always_on(),
        gates_y=GatePolicy.always_on(),
        z0=z0,
        steps=spec.steps,
    )


def run_scan(spec: ScanSpec) -> ScanResult:
    """Certify and simulate ``spec.count`` seeded random configurations."""
    rng = np.random.default_rng(spec.seed)
    outcomes = [_scan_one(i, sample_config(rng, spec), spec) for i in range(spec.count)]
    return ScanResult(spec=spec, outcomes=outcomes)


def _scan_one(index: int, cfg: JungckConfig, spec: ScanSpec) -> ScanOutcome:
    """Certify one configuration and, when a certificate applies, simulate it.

    The trace lives only in this call, so a sweep never holds two."""
    report = certify(cfg, horizon=max(spec.horizon, spec.steps), tail_tol=spec.tail_tol)
    certified = report.applying()
    monotone_ok = None
    final_ratio = None
    if certified:
        trace = run(cfg)
        report = cross_validate(report, trace)
        zn = trace.z_norms
        if any(p in certified for p in ("i", "ii", "iii")) and len(zn) >= 2:
            monotone_ok = bool(np.all(zn[1:] <= zn[:-1] * (1.0 + MONOTONE_SLACK) + NORM_FLOOR))
        if ("iv" in certified or "v" in certified) and len(zn) >= 1 and zn[0] > 0:
            final_ratio = float(zn[-1] / zn[0])
    return ScanOutcome(
        index=index,
        certified=certified,
        predicted=report.predicted,
        simulation_agrees=report.simulation_agrees,
        monotone_ok=monotone_ok,
        final_ratio=final_ratio,
        notes=list(report.simulation_notes),
    )
