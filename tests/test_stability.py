"""Certificates: constants, applicability checks, cross-validation, soundness."""

import dataclasses

import numpy as np
import pytest

from jungckit import (
    JungckConfig,
    NormsUnavailableError,
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
from jungckit.scan import ScanSpec, sample_config


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

    def test_user_map_has_no_constants(self):
        s = Operator.from_callable(lambda x: 2 * x, 1)
        pair = make_operator_pair(s, Operator.from_callable(lambda x: 0.5 * x, 1),
                                  s_solve=lambda v: v / 2)
        cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                           z0=[1.0], steps=5)
        with pytest.raises(NormsUnavailableError):
            compute_constants(cfg, horizon=40)

    def test_bad_horizon(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(0.5), [1.0, 0.0])
        with pytest.raises(ValueError):
            compute_constants(cfg, horizon=5, tail_start=0)


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
        direct = dataclasses.replace(cfg, pair=OperatorPair(s, t, None, 1e-10))
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
