"""Certificates: constants, applicability checks, cross-validation, soundness."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    JungckConfig,
    Operator,
    OperatorPair,
    Schedule,
    StabilityConstants,
    TraceMismatchError,
    certify,
    check_positivity_constraints,
    check_property_i,
    check_property_ii_iii,
    check_property_iv_v,
    compute_constants,
    cross_validate,
    make_operator_pair,
    run,
)
from jungckit import engine, stability
from jungckit.scan import ScanSpec, sample_config
from test_engine import block_len, reference_power_norms


def linear_config(s_mat, t_mat, a, b, z0, steps=50):
    pair = make_operator_pair(Operator.from_matrix(s_mat), Operator.from_matrix(t_mat))
    return JungckConfig(pair=pair, a=a, b=b, z0=z0, steps=steps)


class TestConstants:
    def test_contractive_scalar_t_tail_supremum(self):
        # t = 0.5*I has ||t^n|| = 0.5^n exactly, so k1 peaks at the tail start
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(0.5), [1.0, 0.0])
        c = compute_constants(cfg, horizon=40, tail_start=3)
        assert c.k1 == pytest.approx(0.5 * 0.5**3, rel=1e-12)
        assert c.k2 == pytest.approx(0.5 * 0.5**3, rel=1e-12)

    def test_full_blend_zeroes_complement_constants(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(1.0), Schedule.constant(1.0), [1.0, 0.0])
        c = compute_constants(cfg, horizon=40)
        assert c.k1p == 0.0
        assert c.k2p == 0.0

    def test_bad_horizon(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(0.5), [1.0, 0.0])
        with pytest.raises(ValueError):
            compute_constants(cfg, horizon=5, tail_start=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t,a,pruned,overflowed", [
        (1e10 * np.eye(2), 0.0, "k1", "k1p"),  # t^31 = 1e310 * I overflows
        (1e10 * np.eye(2), 1.0, "k1p", "k1"),
        (np.full((2, 2), 2.0**31), 0.0, "k1", "k1p"),  # t^32 = 2^1023 * ones is finite, its norm is not
    ], ids=["overflow-a0", "overflow-a1", "inf-norm-a0"])
    def test_zero_weight_prunes_an_overflowed_power(self, t, a, pruned, overflowed):
        # a zero weight on an infinite norm gave 0 * inf = nan before
        cfg = linear_config(np.eye(2), t, Schedule.constant(a), Schedule.constant(0.5), [1.0, 0.0])
        c = compute_constants(cfg, horizon=60)
        assert getattr(c, pruned) == 0.0
        assert getattr(c, overflowed) == c.k2 == math.inf
        res = certify(cfg, horizon=60).properties["i"]
        assert not res.applies and res.margin == -math.inf
        assert res.details["z_factor"] == math.inf


# ---------------------------------------------------------------------------
# compute_constants as it was, over the full power stream, kept as the
# reference for its early exit; a zero weight gives 0, not 0 * inf = nan


def reference_compute_constants(cfg, horizon, tail_start=0):
    tn = reference_power_norms(cfg, horizon)[tail_start:]
    a = cfg.a.array(horizon + 1)
    b = cfg.b.array(horizon + 1)

    def sup(weights):
        w = np.abs(weights[tail_start:])
        with np.errstate(invalid="ignore"):
            return float(np.max(np.where(w > 0, w * tn, 0.0)))

    mu_inv = 1.0 / cfg.pair.s_min_modulus
    return StabilityConstants(
        k1=sup(a), k2=sup(b), k1p=sup(1.0 - a), k2p=float(np.max(np.abs(1.0 - b[tail_start:]))),
        m_bound=float(np.max(mu_inv * (np.abs(1.0 - b) * cfg.pair.s_norm + np.abs(b)))),
        horizon=horizon, tail_start=tail_start,
    )


def constant_bits(c):
    return np.array([c.k1, c.k2, c.k1p, c.k2p, c.m_bound]).tobytes()


SCHEDULES = [Schedule.constant(0.0), Schedule.constant(1.0), Schedule.constant(0.4),
             Schedule.one_minus_inv(k=3), Schedule.inv(k=2)]


@st.composite
def constants_cases(draw):
    """A map of dimension 1..50 of one of four kinds, schedules that include
    the zero and full blends, a tail start, and a horizon whose powers end on
    a block boundary or inside a block (or at 40 when that is longer)."""
    d = draw(st.integers(1, 50))
    k = block_len(d)
    tail_start = draw(st.sampled_from([0, 0, 1, 5, min(k, 100)]))
    count = draw(st.integers(1, 2)) * k + draw(st.sampled_from([0, 1, k // 2, k - 1]))
    count = max(count, tail_start + 11, 40)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    kind = draw(st.sampled_from(["contractive", "non-normal", "orthogonal", "overflowing"]))
    if kind == "contractive":
        raw = rng.normal(size=(d, d))
        t = raw * (draw(st.floats(0.05, 0.99)) / np.linalg.norm(raw, 2))
    elif kind == "non-normal":
        # eigenvalues inside (-0.95, 0.95), and for d >= 2 a norm of 2 to 50
        # from the strictly upper triangle, so the powers grow before they decay
        upper = np.triu(rng.normal(size=(d, d)), 1)
        if d > 1:
            upper *= draw(st.floats(2.0, 50.0)) / np.linalg.norm(upper, 2)
        t = q @ (upper + np.diag(rng.uniform(-0.95, 0.95, d))) @ q.T
    elif kind == "orthogonal":
        t = q  # every power has norm 1 up to rounding
    else:
        # (c Q)^n has norm c^n, which first passes the largest float near the target power
        target = draw(st.sampled_from(sorted(n for n in {2, k - 1, k + 1, 2 * k - 1, count // 2} if n >= 2)))
        t = 2.0 ** (1024 / (target - 0.5)) * q
    s = rng.normal(size=(d, d)) + (d + 2) * np.eye(d)
    cfg = JungckConfig(pair=make_operator_pair(Operator.from_matrix(s), Operator.from_matrix(t)),
                       a=draw(st.sampled_from(SCHEDULES)), b=draw(st.sampled_from(SCHEDULES)),
                       z0=np.ones(d), steps=3)
    return cfg, count - 1, tail_start


def count_drawn_powers(monkeypatch):
    """Route the stream through a wrapper that records each block's length."""
    drawn = []

    def counted(t):
        for block in engine.matrix_power_blocks(t):
            drawn.append(len(block))
            yield block

    monkeypatch.setattr(stability, "matrix_power_blocks", counted)
    return drawn


def random_d60(norm):
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(60, 60))
    return linear_config(rng.normal(size=(60, 60)) + 30 * np.eye(60), raw * (norm / np.linalg.norm(raw, 2)),
                         Schedule.constant(0.5), Schedule.one_minus_inv(k=2), np.ones(60), steps=3)


class TestEarlyExit:
    @pytest.mark.filterwarnings("error")
    @given(constants_cases())
    @settings(max_examples=60, deadline=None)
    def test_constants_match_the_full_stream(self, case):
        cfg, horizon, tail_start = case
        got = compute_constants(cfg, horizon, tail_start)
        want = reference_compute_constants(cfg, horizon, tail_start)
        assert constant_bits(got) == constant_bits(want)
        assert got == want and 1 <= got.powers_read <= horizon + 1

    def test_contractive_map_stops_after_a_few_powers(self, monkeypatch):
        cfg = random_d60(0.9)
        drawn = count_drawn_powers(monkeypatch)
        c = compute_constants(cfg, horizon=300)
        assert sum(drawn) == c.powers_read <= 5
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 300))

    def test_cap_keeps_the_growth_before_the_dip(self):
        # ||t^n|| of a rotation in a skewed basis dips to 0.90 at n = 10 and
        # climbs back to 86 at n = 15: the cap is 0.90 * 95, not 0.90
        rot = np.array([[np.cos(np.pi / 10), -np.sin(np.pi / 10)], [np.sin(np.pi / 10), np.cos(np.pi / 10)]])
        t = np.zeros((40, 40))
        t[:2, :2] = 0.99 * np.diag([10.0, 0.1]) @ rot @ np.diag([0.1, 10.0])
        cfg = linear_config(2 * np.eye(40), t, Schedule.constant(0.5), Schedule.constant(0.5),
                            np.ones(40), steps=3)
        c = compute_constants(cfg, horizon=100, tail_start=10)
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 100, 10))
        # t^20 dips to 0.82, and 0.5 * 0.82 * 95 is below k1 = 0.5 * 86: the stream stops there
        assert c.powers_read == 21

    def test_identity_map_reads_every_power(self, monkeypatch):
        cfg = linear_config(np.eye(60) * 2, np.eye(60), Schedule.constant(0.5), Schedule.constant(0.5),
                            np.ones(60), steps=3)
        drawn = count_drawn_powers(monkeypatch)
        assert compute_constants(cfg, horizon=300).powers_read == sum(drawn) == 301

    @pytest.mark.parametrize("norm", [0.9, 1.0])
    def test_power_norms_stay_a_full_stream(self, monkeypatch, norm):
        cfg = random_d60(norm)
        drawn = count_drawn_powers(monkeypatch)
        norms = stability.power_norms(cfg, 300)
        assert sum(drawn) == len(norms) == 301
        assert norms.tobytes() == reference_power_norms(cfg, 300).tobytes()


class TestPropertyI:
    def test_zero_constants_apply_with_full_margin(self):
        c = StabilityConstants(k1=0, k2=0, k1p=0, k2p=0, m_bound=0, horizon=50, tail_start=0)
        res = check_property_i(c, mu_s=1.0)
        assert res.applies and res.margin == pytest.approx(1.0)

    def test_first_inequality_failure(self):
        c = StabilityConstants(k1=0, k2=0.6, k1p=0, k2p=0.5, m_bound=1, horizon=50, tail_start=0)
        res = check_property_i(c, mu_s=1.0)
        assert not res.applies
        assert res.margin == pytest.approx(-0.1)

    def test_second_inequality_and_simple_pair(self):
        c = StabilityConstants(k1=0.5, k2=0.0, k1p=0.5, k2p=0.0, m_bound=1, horizon=50, tail_start=0)
        res = check_property_i(c, mu_s=2.0)
        assert res.applies
        assert res.details["z_factor"] == pytest.approx(0.25)
        assert res.details["simple_pair_applies"]
        assert res.details["simple_z_factor"] == pytest.approx(0.5)


class TestPropertyIIandIII:
    def test_identity_s_full_b(self):
        # s = I, b = 1: the y-amplification is exactly 1, and any a in [0,1] passes
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.3), Schedule.constant(1.0), [1.0, 0.0])
        res_ii, res_iii = check_property_ii_iii(cfg, horizon=30)
        assert res_ii.applies and res_iii.applies

    def test_expanding_t_fails_both(self):
        cfg = linear_config(np.eye(2), 1.5 * np.eye(2),
                            Schedule.constant(0.3), Schedule.constant(1.0), [1.0, 0.0])
        res_ii, res_iii = check_property_ii_iii(cfg, horizon=30)
        assert not res_ii.applies and not res_iii.applies

    def test_double_identity_bound(self):
        # s = 2I, b = 1, a = 0.5: amplification 0.5 and 0.5 + 0.5*0.5 = 0.75 <= 2
        cfg = linear_config(2 * np.eye(2), 0.9 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(1.0), [1.0, 0.0])
        res_ii, res_iii = check_property_ii_iii(cfg, horizon=30)
        assert res_iii.applies
        assert res_iii.details["m_bound"] == pytest.approx(0.5)
        assert res_iii.details["max_lhs"] == pytest.approx(0.75)


class TestPropertyIVandV:
    def test_constant_one_blend(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(1.0), Schedule.constant(0.5), [1.0, 0.0])
        res_iv, res_v = check_property_iv_v(cfg, horizon=100)
        assert res_iv.applies and not res_v.applies

    def test_drifting_b_certifies_on_long_horizon(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.3), Schedule.one_minus_inv(k=2), [1.0, 0.0])
        _, res_v = check_property_iv_v(cfg, horizon=1000, tol=0.01)
        assert res_v.applies  # b_n within 0.002 of 1 on the checked tail

    def test_norm_exactly_one_is_excluded(self):
        cfg = linear_config(np.eye(2), np.eye(2),
                            Schedule.constant(1.0), Schedule.constant(1.0), [1.0, 0.0])
        res_iv, res_v = check_property_iv_v(cfg, horizon=100)
        assert not res_iv.applies and not res_v.applies


class TestCrossValidate:
    def test_certified_config_agrees_with_simulation(self):
        cfg = linear_config(2 * np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(1.0), [1.0, -2.0], steps=60)
        report = certify(cfg, horizon=60)
        assert report.applying()
        report = cross_validate(report, run(cfg))
        assert report.simulation_agrees is True

    def test_uncertified_config_has_nothing_to_check(self):
        cfg = linear_config(np.eye(2), 1.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(0.5), [1.0, 0.0], steps=20)
        report = certify(cfg, horizon=20)
        assert report.predicted == "no-certificate"
        report = cross_validate(report, run(cfg))
        assert report.simulation_agrees is None

    def test_vanishing_certificate_reaches_zero(self):
        cfg = linear_config(np.eye(3), 0.5 * np.eye(3),
                            Schedule.constant(1.0), Schedule.constant(0.5),
                            [1.0, 2.0, 3.0], steps=100)
        report = certify(cfg, horizon=100)
        assert report.properties["iv"].applies
        report = cross_validate(report, run(cfg))
        assert report.simulation_agrees is True

    def test_mismatched_trace_rejected(self):
        cfg = linear_config(2 * np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(1.0), [1.0, 0.0], steps=30)
        other = linear_config(2 * np.eye(2), 0.5 * np.eye(2),
                              Schedule.constant(0.9), Schedule.constant(1.0), [1.0, 0.0], steps=30)
        report = certify(cfg, horizon=30)
        with pytest.raises(TraceMismatchError):
            cross_validate(report, run(other))


class TestSoundness:
    def test_certified_traces_are_monotone(self):
        # randomized mini-sweep; the acceptance suite runs the full-size one
        spec = ScanSpec(count=25, dim=4, steps=200, horizon=200, seed=77)
        rng = np.random.default_rng(spec.seed)
        checked = 0
        for _ in range(spec.count):
            cfg = sample_config(rng, spec)
            report = certify(cfg, horizon=spec.horizon)
            bounded = [p for p in report.applying() if p in ("i", "ii", "iii")]
            if not bounded:
                continue
            tr = run(cfg)
            zn = np.linalg.norm(tr.z, axis=1)
            assert np.all(zn[1:] <= zn[:-1] * (1 + 1e-9))
            checked += 1
        assert checked >= 5

    def test_certificates_monotone_in_update_norm(self):
        # shrinking t never turns an applying bounded certificate off
        rng = np.random.default_rng(31)
        spec = ScanSpec(count=40, dim=3, steps=50, horizon=60, seed=5)
        for _ in range(spec.count):
            cfg = sample_config(rng, spec)
            report = certify(cfg, horizon=spec.horizon)
            before = set(p for p in report.applying() if p in ("i", "ii", "iii"))
            if not before:
                continue
            shrunk = JungckConfig(
                pair=make_operator_pair(cfg.pair.s,
                                        Operator.from_matrix(0.5 * cfg.pair.t.matrix)),
                a=cfg.a, b=cfg.b, z0=cfg.z0, steps=cfg.steps,
            )
            after = set(p for p in certify(shrunk, horizon=spec.horizon).applying()
                        if p in ("i", "ii", "iii"))
            assert before <= after

    def test_never_predicts_zero_without_vanishing_certificate(self):
        rng = np.random.default_rng(19)
        spec = ScanSpec(count=40, dim=3, steps=50, horizon=60, seed=5)
        for _ in range(spec.count):
            report = certify(sample_config(rng, spec), horizon=spec.horizon)
            if report.predicted == "converges-to-zero":
                assert report.properties["iv"].applies or report.properties["v"].applies


class TestPositivityConstraints:
    def demo_config(self, t_mat=None, b=None):
        t = np.array([[0.1, 0.2], [0.05, 0.1]]) if t_mat is None else np.asarray(t_mat)
        return linear_config(np.diag([2.0, 2.0]), t,
                             Schedule.constant(1.0),
                             b or Schedule.one_minus_inv(k=2),
                             [1.0, 0.5], steps=20)

    def test_entrywise_nonnegative_pair_passes(self):
        rep = check_positivity_constraints(self.demo_config(), horizon=400)
        assert rep.s_inv_nonneg and rep.t_nonneg
        assert rep.b_in_range and rep.b_tends_to_one
        assert rep.a_tail_limit == 1.0
        assert rep.passes

    def test_negative_entry_fails(self):
        rep = check_positivity_constraints(
            self.demo_config(t_mat=[[0.1, -0.2], [0.05, 0.1]]), horizon=400)
        assert not rep.t_nonneg and not rep.passes

    def test_zero_b_fails_range(self):
        rep = check_positivity_constraints(
            self.demo_config(b=Schedule.constant(0.0)), horizon=400)
        assert not rep.b_in_range

    def test_little_o_stream_with_trace(self):
        cfg = self.demo_config()
        rep = check_positivity_constraints(cfg, horizon=400, trace=run(cfg))
        assert rep.little_o_ratios is not None and len(rep.little_o_ratios) == 20

    def test_min_inverse_entry_reads_the_cached_inverse(self):
        s = np.random.default_rng(1).normal(size=(6, 6)) + 3 * np.eye(6)
        cfg = linear_config(s, np.eye(6) * 0.5, Schedule.constant(1.0), Schedule.one_minus_inv(k=2),
                            np.ones(6), steps=5)
        rep = check_positivity_constraints(cfg, horizon=40)
        assert rep.min_s_inv_entry == float(np.min(np.linalg.inv(s)))

    def test_directly_built_pair_has_its_inverse(self):
        cfg = self.demo_config()
        s, t = cfg.pair.s, cfg.pair.t
        direct = dataclasses.replace(cfg, pair=OperatorPair(s, t, 1e-10))
        assert check_positivity_constraints(direct, horizon=400) == \
            check_positivity_constraints(cfg, horizon=400)

    def test_little_o_ratio_of_a_tiny_iterate_is_finite(self):
        # y_27 = [1.5e-170, 1.5e-170]: its squares underflow, but its norm is
        # about 2.1e-170, so ||t^27|| / ||y_27|| is about 8.5e158, not inf
        cfg = linear_config(np.eye(2), [[0.3, 0.1], [0.1, 0.3]], Schedule.constant(1.0),
                            Schedule.one_minus_inv(k=2), [1.0, 0.5], steps=30)
        trace = run(cfg)
        assert 0 < np.max(np.abs(trace.y[27])) < 1e-160
        rep = check_positivity_constraints(cfg, horizon=400, trace=trace)
        assert np.all(np.isfinite(rep.little_o_ratios))
        assert rep.little_o_ratios[27] == pytest.approx(0.4**27 / np.hypot(*(trace.y[27] * 1e170)) * 1e170)

    def test_little_o_ratio_of_a_zero_iterate_is_inf(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2), Schedule.constant(1.0),
                            Schedule.one_minus_inv(k=2), [0.0, 0.0], steps=5)
        rep = check_positivity_constraints(cfg, horizon=40, trace=run(cfg))
        assert np.all(rep.little_o_ratios == np.inf)
