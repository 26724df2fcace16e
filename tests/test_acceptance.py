"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything here is seeded and desk-scale.
"""

import math

import numpy as np

from jungckit import (
    GatePolicy,
    JungckConfig,
    Operator,
    Schedule,
    VenterConfig,
    accelerate_sequence,
    acceleration_ratio,
    certify,
    identity_residuals,
    make_operator_pair,
    run,
    venter_run,
    verify_property_iv,
    verify_summability,
)
from jungckit.cli import parse_config_text, run_experiment
from jungckit.scan import ScanSpec, sample_config
from trace_csv import read_jungck_csv

SEED = 20250810


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_linear_config(rng, dim=5, steps=200, t_norm=(0.1, 0.9), mu=(0.5, 3.0),
                          schedules="lists"):
    raw = rng.normal(size=(dim, dim))
    t = Operator.from_matrix(raw * (rng.uniform(*t_norm) / np.linalg.norm(raw, 2)))
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    s = Operator.from_matrix(q1 @ np.diag(rng.uniform(*mu, size=dim)) @ q2.T)
    a = Schedule.from_values(rng.uniform(0, 1, size=steps))
    b = Schedule.from_values(rng.uniform(0, 1, size=steps))
    return JungckConfig(pair=make_operator_pair(s, t), a=a, b=b,
                        z0=rng.normal(size=dim), steps=steps)


def test_criterion_1_step_identity():
    """100 random linear configs, d=5: the step identity is exact to 1e-9."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        cfg = _random_linear_config(rng)
        tr = run(cfg)
        assert not tr.diverged
        rel = identity_residuals(tr) / (1.0 + np.linalg.norm(tr.sz[1:], axis=1))
        worst = max(worst, float(np.max(rel)))
    _report("criterion-1 step-identity", worst <= 1e-9,
            f"max relative residual {worst:.3e} over 100 configs x 200 steps (tol 1e-9)")


def test_criterion_2_correction_exactness():
    """50 random geometric sequences: every corrected term hits the limit."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        lim = rng.uniform(-10, 10)
        c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        r = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        raw = np.array([lim + c * r**n for n in range(40)])
        accel, _ = accelerate_sequence(raw)
        err = float(np.max(np.abs(accel.ravel() - lim))) / (1.0 + abs(lim))
        worst = max(worst, err)
    _report("criterion-2 correction-exactness", worst <= 1e-10,
            f"worst relative error {worst:.3e} over 50 sequences (tol 1e-10)")


def test_criterion_3_acceleration_ratio():
    """Two-mode decay: the corrected error ratio is small and keeps shrinking."""
    raw = np.array([1.0 + 0.7**n + 0.5 * 0.2**n for n in range(20)])
    accel, _ = accelerate_sequence(raw)
    ratios = acceleration_ratio(raw, accel, np.array([1.0]))
    at_10 = ratios[10]
    non_increasing = all(ratios[n + 1] <= ratios[n] for n in range(5, 15))
    _report("criterion-3 acceleration-ratio", at_10 < 0.05 and non_increasing,
            f"ratio(10)={at_10:.3e} (<0.05), non-increasing on [5,15]={non_increasing}")


def test_criterion_4_gating_safety():
    """10^4 hostile windows: output always finite, gated lanes bit-identical."""
    rng = np.random.default_rng(SEED + 2)
    bad_finite = 0
    bad_identity = 0
    d = 4
    for i in range(10_000):
        scale = 10.0 ** rng.uniform(-30, 30)
        s0 = rng.normal(size=d) * scale
        kind = i % 4
        if kind == 0:  # constant window: exact-zero denominator
            s1, s2 = s0.copy(), s0.copy()
        elif kind == 1:  # denominator forced to ~0
            s1 = s0 + rng.normal(size=d) * scale
            s2 = 2 * s1 - s0 + rng.normal(size=d) * scale * 1e-18
        elif kind == 2:  # mixed magnitudes
            s1 = rng.normal(size=d) * 10.0 ** rng.uniform(-30, 30)
            s2 = rng.normal(size=d) * 10.0 ** rng.uniform(-30, 30)
        else:  # plain random
            s1 = rng.normal(size=d) * scale
            s2 = rng.normal(size=d) * scale
        for policy in (GatePolicy.always_on(), GatePolicy.always_off()):
            accel, gates = accelerate_sequence(np.stack([s0, s1, s2]), policy)
            out = accel[0]
            if not np.isfinite(out).all():
                bad_finite += 1
            off = ~gates[0].astype(bool)
            if not np.array_equal(out[off], s0[off]):
                bad_identity += 1
    _report("criterion-4 gating-safety", bad_finite == 0 and bad_identity == 0,
            f"10^4 windows x 2 policies: {bad_finite} non-finite, {bad_identity} gate-off mismatches")


def test_criterion_5_venter_closed_form_and_telescoping():
    """Harmonic damping closed form to 1e-12; telescoping identity on 100 configs."""
    zero = Schedule.constant(0.0, clamp=(0.0, math.inf))
    cfg = VenterConfig(alpha=Schedule.inv(k=2), gamma=zero, omega=zero,
                       sigma=0.0, x0=1.0, steps=10_000)
    trace = venter_run(cfg)
    closed_form_err = float(np.max(np.abs(trace.x * np.arange(1, 10_002) - 1.0)))

    rng = np.random.default_rng(SEED + 3)
    worst_margin = math.inf
    all_pass = True
    for _ in range(100):
        alpha = Schedule.constant(rng.uniform(0.1, 1.0))
        gamma = Schedule.constant(rng.uniform(0.0, 0.9) * alpha.c, clamp=(0.0, math.inf))
        omega = Schedule.from_values(rng.uniform(0, 1, 200) * rng.uniform(0.3, 0.9) ** np.arange(200),
                                     clamp=(0.0, math.inf))
        vcfg = VenterConfig(alpha=alpha, gamma=gamma, omega=omega,
                            sigma=0.0, x0=rng.uniform(0, 5), steps=200)
        verdict = verify_summability(venter_run(vcfg), vcfg)
        all_pass &= bool(verdict.passed)
        worst_margin = min(worst_margin, verdict.margin)
    ok = closed_form_err <= 1e-12 and all_pass
    _report("criterion-5 venter-closed-form", ok,
            f"closed-form error {closed_form_err:.3e} (tol 1e-12); "
            f"telescoping held on 100/100 configs (worst margin {worst_margin:.3e})")


def test_criterion_6_venter_tight_bound():
    """x -> 0.6x + 1 from 0: sup x and the bound both land on 2.5."""
    cfg = VenterConfig(alpha=Schedule.constant(0.5),
                       gamma=Schedule.constant(0.1, clamp=(0.0, math.inf)),
                       omega=Schedule.constant(0.0, clamp=(0.0, math.inf)),
                       sigma=1.0, x0=0.0, steps=200)
    trace = venter_run(cfg)
    verdict = verify_property_iv(trace, cfg)
    sup_ok = abs(verdict.value - 2.5) <= 1e-9
    bound_ok = abs(verdict.threshold - 2.5) <= 1e-9
    k_ok = trace.k_hat_final == 0.5
    margin_ok = verdict.margin >= -1e-9
    _report("criterion-6 venter-tight-bound",
            sup_ok and bound_ok and k_ok and margin_ok and bool(verdict.passed),
            f"sup x={verdict.value!r}, bound={verdict.threshold!r}, "
            f"K_hat={trace.k_hat_final!r}, margin={verdict.margin:.3e} (>= -1e-9)")


def test_criterion_7_certificate_soundness():
    """Certified configs: monotone norms over 1000 steps; vanishing certs reach 0."""
    spec = ScanSpec(count=1, dim=5, steps=1000, horizon=1000, seed=SEED)
    rng = np.random.default_rng(SEED + 4)
    certified = 0
    tries = 0
    monotone_violations = 0
    while certified < 100 and tries < 400:
        tries += 1
        cfg = sample_config(rng, spec)
        report = certify(cfg, horizon=spec.horizon)
        if not any(p in report.applying() for p in ("i", "ii", "iii")):
            continue
        certified += 1
        zn = np.linalg.norm(run(cfg).z, axis=1)
        if not np.all(zn[1:] <= zn[:-1] * (1.0 + 1e-9)):
            monotone_violations += 1

    spec2 = ScanSpec(count=1, dim=5, steps=201, horizon=200, seed=SEED)
    vanishing = 0
    tries2 = 0
    vanish_violations = 0
    while vanishing < 40 and tries2 < 300:
        tries2 += 1
        cfg = sample_config(rng, spec2)
        report = certify(cfg, horizon=spec2.horizon)
        if not (report.properties["iv"].applies or report.properties["v"].applies):
            continue
        vanishing += 1
        zn = np.linalg.norm(run(cfg).z, axis=1)
        if not zn[-1] < 1e-6 * zn[0]:
            vanish_violations += 1

    ok = (certified == 100 and monotone_violations == 0
          and vanishing == 40 and vanish_violations == 0)
    _report("criterion-7 certificate-soundness", ok,
            f"{certified} bounded certs ({tries} tries, {monotone_violations} monotonicity "
            f"violations over 1000 steps); {vanishing} vanishing certs "
            f"({vanish_violations} decay violations at step 200)")


def test_criterion_8_positivity_demo():
    """Nonnegative contractive demo: orthant preserved, decay to zero, correction helps."""
    base = np.array([[0.3, 0.1], [0.2, 0.2]])
    t = Operator.from_matrix(base * (0.4 / np.linalg.norm(base, 2)))
    s = Operator.scaled_identity(2.0, 2)
    cfg = JungckConfig(pair=make_operator_pair(s, t), a=Schedule.constant(1.0),
                       b=Schedule.one_minus_inv(k=2), z0=[1.0, 0.5], steps=101)
    tr = run(cfg)
    min_sz = float(np.min(tr.sz))
    final = float(np.linalg.norm(tr.sz[100]))
    raw_err = np.linalg.norm(tr.sz, axis=1)
    acc_err = np.linalg.norm(tr.asz, axis=1)
    idx = range(5, 99)  # corrected terms exist through raw index 98
    correction_wins = all(acc_err[n] <= raw_err[n] for n in idx)
    ok = min_sz >= -1e-12 and final < 1e-8 and correction_wins
    _report("criterion-8 positivity-demo", ok,
            f"min Sz component {min_sz:.1e} (>= -1e-12), ||Sz_100||={final:.3e} (<1e-8), "
            f"corrected error <= raw error on [5,98]: {correction_wins}")


REPRO_CONFIG = """
scenario: jungck
jungck:
  s: {matrix: [[2.0, 0.0], [0.0, 2.0]]}
  t: {matrix: [[0.25, 0.1], [0.1, 0.2]]}
  a: {form: constant, value: 0.7}
  b: {form: one-minus-inv, k: 2}
  z0: [1.0, 0.5]
  steps: 50
"""


def test_criterion_9_reproducibility(tmp_path):
    """Same config twice: byte-identical CSV; parsing it back loses nothing."""
    run_experiment(parse_config_text(REPRO_CONFIG), output_dir=tmp_path / "a", quiet=True)
    run_experiment(parse_config_text(REPRO_CONFIG), output_dir=tmp_path / "b", quiet=True)
    csv_a = (tmp_path / "a" / "trace.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trace.csv").read_bytes()
    identical = csv_a == csv_b

    trace = run(parse_config_text(REPRO_CONFIG).jungck.cfg)
    cols = read_jungck_csv(tmp_path / "a" / "trace.csv")
    exact = (
        cols["z[0]"] == trace.z[:, 0].tolist()
        and cols["z[1]"] == trace.z[:, 1].tolist()
        and cols["Sy[1]"] == trace.sy[:, 1].tolist()
        and [v for v in cols["ASz[0]"] if v is not None] == trace.asz[:, 0].tolist()
        and [v for v in cols["identity_residual"] if v is not None]
        == identity_residuals(trace).tolist()
    )
    _report("criterion-9 reproducibility", identical and exact,
            f"byte-identical CSV: {identical}; exact round-trip: {exact}")
