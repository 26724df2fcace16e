"""The damped scalar recursion and its verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    HypothesisViolatedError,
    NonFiniteError,
    Schedule,
    ScheduleViolationError,
    VenterConfig,
    venter_run,
    verify_property_i,
    verify_property_iv,
    verify_summability,
)

ZERO = Schedule.constant(0.0, clamp=(0.0, math.inf))


def config(alpha, gamma=ZERO, omega=ZERO, sigma=0.0, x0=1.0, steps=100):
    return VenterConfig(alpha=alpha, gamma=gamma, omega=omega, sigma=sigma, x0=x0, steps=steps)


class TestRun:
    def test_harmonic_damping_closed_form(self):
        # alpha_n = 1/(n+2) telescopes to x_n = x0/(n+1)
        trace = venter_run(config(Schedule.inv(k=2), steps=10))
        assert trace.x[10] == pytest.approx(1.0 / 11.0, rel=1e-13)

    def test_full_damping_zeroes_immediately(self):
        trace = venter_run(config(Schedule.constant(1.0), x0=7.0, steps=5))
        assert np.array_equal(trace.x[1:], np.zeros(5))

    def test_driven_recursion_approaches_fixed_point(self):
        # x -> 0.5 x + 1 has fixed point 2
        trace = venter_run(config(Schedule.constant(0.5), sigma=1.0, x0=0.0, steps=20))
        assert trace.x[20] == pytest.approx(2.0, abs=1e-5)

    def test_inadmissible_alpha_raises(self):
        bad = Schedule.from_values([0.5, 0.0, 0.5], clamp=(0.0, 1.0))
        with pytest.raises(ScheduleViolationError):
            venter_run(config(bad, steps=3))

    def test_negative_sigma_rejected_at_construction(self):
        with pytest.raises(ScheduleViolationError):
            config(Schedule.constant(0.5), sigma=-1.0)

    @pytest.mark.parametrize("field", ["sigma", "x0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected_at_construction(self, field, value):
        with pytest.raises(ScheduleViolationError, match=f"{field} must be finite"):
            config(Schedule.constant(0.5), **{field: value})

    def test_overflow_raises(self):
        # x grows like 1.5^n and overflows near n = 1763
        growing = Schedule.constant(0.5, clamp=(0.0, math.inf))
        with pytest.raises(NonFiniteError, match=r"x is non-finite from n=1763"):
            venter_run(config(Schedule.inv(k=2), gamma=growing, steps=2000))

    def test_cesaro_mean_in_unit_interval(self):
        trace = venter_run(config(Schedule.inv(k=2), steps=50))
        assert np.all((trace.k_hat >= 0) & (trace.k_hat < 1))

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.04),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_iterates_stay_nonnegative(self, a, g, w, x0, sigma):
        trace = venter_run(config(
            Schedule.constant(a),
            Schedule.constant(g, clamp=(0.0, math.inf)),
            Schedule.constant(w, clamp=(0.0, math.inf)),
            sigma=sigma, x0=x0, steps=60,
        ))
        assert np.all(trace.x >= 0)

    def test_raising_omega_never_decreases_later_iterates(self):
        rng = np.random.default_rng(17)
        w1 = rng.uniform(0, 1, size=40)
        w2 = w1.copy()
        w2[13] += 0.5
        base = dict(alpha=Schedule.constant(0.3), gamma=ZERO, sigma=0.2, x0=1.0, steps=40)
        t1 = venter_run(VenterConfig(omega=Schedule.from_values(w1, clamp=(0.0, math.inf)), **base))
        t2 = venter_run(VenterConfig(omega=Schedule.from_values(w2, clamp=(0.0, math.inf)), **base))
        assert np.all(t2.x >= t1.x)
        assert t2.x[14] > t1.x[14]


class TestPropertyI:
    def test_harmonic_damping_passes(self):
        trace = venter_run(config(Schedule.inv(k=2), steps=10_000))
        verdict = verify_property_i(trace, config(Schedule.inv(k=2), steps=10_000), eps=1e-3)
        assert verdict.passed
        assert verdict.info["sum_alpha_diverges"] is True
        assert abs(verdict.info["expansion_residual"]) <= 1e-9

    def test_summable_damping_stalls_above_zero(self):
        # sum alpha < inf: x_n converges to the positive product prod(1 - alpha_i)
        cfg = config(Schedule.inv_pow(k=2, p=2.0), steps=2000)
        trace = venter_run(cfg)
        floor = np.prod([1 - 1.0 / (n + 2) ** 2 for n in range(2000)])
        assert trace.x[-1] == pytest.approx(floor, rel=1e-10)
        verdict = verify_property_i(trace, cfg, eps=0.4)
        assert not verdict.passed
        assert verdict.info["sum_alpha_diverges"] is False

    def test_zero_seed_trivially_passes(self):
        cfg = config(Schedule.constant(0.5), x0=0.0, steps=50)
        verdict = verify_property_i(venter_run(cfg), cfg, eps=1e-12)
        assert verdict.passed and verdict.value == 0.0

    def test_nonzero_sigma_violates_hypothesis(self):
        cfg = config(Schedule.constant(0.5), sigma=1.0, steps=20)
        with pytest.raises(HypothesisViolatedError):
            verify_property_i(venter_run(cfg), cfg, eps=1.0)


class TestSummability:
    def test_partial_fraction_telescoping(self):
        # sum alpha_i x_i = 1 - 1/(N+1) and x_N = 1/(N+1): the identity is exact
        cfg = config(Schedule.inv(k=2), steps=100)
        trace = venter_run(cfg)
        verdict = verify_summability(trace, cfg)
        assert verdict.passed
        assert trace.sum_alpha_x[-1] + trace.x[-1] == pytest.approx(1.0, rel=1e-12)

    def test_geometric_drive(self):
        omega = Schedule.from_values([2.0**-n for n in range(80)], clamp=(0.0, math.inf))
        cfg = config(Schedule.constant(0.5), omega=omega, x0=0.0, steps=80)
        verdict = verify_summability(venter_run(cfg), cfg)
        assert verdict.passed and verdict.value <= 1e-12

    def test_all_zero_config(self):
        cfg = config(Schedule.constant(0.5), x0=0.0, steps=30)
        verdict = verify_summability(venter_run(cfg), cfg)
        assert verdict.passed and verdict.value == 0.0

    def test_sigma_hypothesis_enforced(self):
        cfg = config(Schedule.constant(0.5), sigma=0.1, steps=10)
        with pytest.raises(HypothesisViolatedError):
            verify_summability(venter_run(cfg), cfg)

    def test_random_configs_hold_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            alpha = Schedule.constant(rng.uniform(0.1, 1.0))
            gamma = Schedule.constant(rng.uniform(0, 0.09), clamp=(0.0, math.inf))
            omega = Schedule.from_values(rng.uniform(0, 1, 60) * 0.5 ** np.arange(60),
                                         clamp=(0.0, math.inf))
            cfg = config(alpha, gamma, omega, x0=rng.uniform(0, 5), steps=60)
            assert verify_summability(venter_run(cfg), cfg).passed


class TestPropertyIV:
    def test_tight_bound_case(self):
        # x -> 0.6 x + 1 climbs to 2.5; the bound is exactly 2.5
        cfg = config(Schedule.constant(0.5),
                     Schedule.constant(0.1, clamp=(0.0, math.inf)),
                     sigma=1.0, x0=0.0, steps=200)
        verdict = verify_property_iv(venter_run(cfg), cfg)
        assert verdict.passed
        assert verdict.value == pytest.approx(2.5, abs=1e-12)
        assert verdict.threshold == pytest.approx(2.5, abs=1e-9)
        assert verdict.margin >= -1e-9
        assert verdict.info["k_hat"] == 0.5

    def test_equal_schedules_violate_hypothesis(self):
        sched = Schedule.constant(0.4)
        cfg = config(sched, Schedule.constant(0.4, clamp=(0.0, math.inf)), sigma=0.5, steps=20)
        with pytest.raises(HypothesisViolatedError):
            verify_property_iv(venter_run(cfg), cfg)

    def test_full_damping_bound_equals_seed(self):
        cfg = config(Schedule.constant(1.0), x0=10.0, steps=50)
        verdict = verify_property_iv(venter_run(cfg), cfg)
        # k_hat = 0, so the bound is (1 - 0) * 10 / 1 = 10 = sup x
        assert verdict.passed
        assert verdict.value == 10.0
        assert verdict.threshold == pytest.approx(10.0)
