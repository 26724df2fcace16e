"""The damped scalar recursion and its verdicts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    HypothesisViolatedError,
    InvalidArgumentError,
    NonFiniteError,
    Schedule,
    ScheduleViolationError,
    VenterConfig,
    venter_run,
    verify_property_i,
    verify_property_iv,
    verify_summability,
)
from jungckit.model import SCHEDULE_FORMS
from jungckit.venter import VenterTrace

from conftest import fixed_or_fresh, traced_peak

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


    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_an_eps_that_decides_nothing_is_refused(self, eps):
        # eps = inf would pass every finite x_N
        cfg = config(Schedule.constant(0.5), steps=20)
        with pytest.raises(InvalidArgumentError, match="^eps must be finite and > 0, got "):
            verify_property_i(venter_run(cfg), cfg, eps=eps)


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


# ---------------------------------------------------------------------------
# the loops against the numpy-scalar loops they replaced


def ref_venter_run(cfg):
    """venter_run as it was: the recursion on numpy scalars, one array entry a step."""
    n_steps = cfg.steps
    alpha, gamma, omega = (s.prefix(n_steps) for s in (cfg.alpha, cfg.gamma, cfg.omega))
    for name, vals, lo_open in (("alpha", alpha, True), ("gamma", gamma, False), ("omega", omega, False)):
        bad = ((vals <= 0) | (vals > 1)) if lo_open else vals < 0
        if bad.any():
            n_bad = int(np.argmax(bad))
            raise ScheduleViolationError(f"{name}_n = {vals[n_bad]} at n={n_bad} is not admissible")
    x = np.empty(n_steps + 1)
    x[0] = cfg.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            x[n + 1] = (1.0 - alpha[n] + gamma[n]) * x[n] + omega[n] + cfg.sigma
        xs = x[:-1]
        trace = VenterTrace(x=x, k_hat=np.cumsum(1.0 - alpha) / np.arange(1, n_steps + 1),
                            alpha_vals=alpha, gamma_vals=gamma, omega_vals=omega,
                            sum_alpha_x=np.cumsum(alpha * xs), sum_gamma_x=np.cumsum(gamma * xs),
                            sum_omega=np.cumsum(omega), sum_x=np.cumsum(x), sigma=cfg.sigma)
    for name in ("x", "sum_alpha_x", "sum_gamma_x", "sum_omega", "sum_x"):
        finite = np.isfinite(getattr(trace, name))
        if not finite.all():
            raise NonFiniteError(f"venter recursion overflowed: {name} is non-finite from n={int(np.argmin(finite))}")
    return trace


def ref_expansion(trace):
    """verify_property_i's Horner loop as it was, on numpy scalars:
    (expansion_residual, expansion_remainder)."""
    k = trace.k_hat_final
    r = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(trace.steps):
            r = k * r + (trace.omega_vals[n] - (k + trace.alpha_vals[n] - 1.0) * trace.x[n])
        return float(trace.x[-1] - k ** trace.steps * trace.x[0] - r), float(r)


TRACE_ARRAYS = ("x", "k_hat", "alpha_vals", "gamma_vals", "omega_vals",
                "sum_alpha_x", "sum_gamma_x", "sum_omega", "sum_x")


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def any_schedule(draw, clamp, steps):
    """A schedule of any form; a list has ``steps`` values, so that it reaches the horizon."""
    form = draw(st.sampled_from(SCHEDULE_FORMS))
    lo, hi = clamp
    if form == "constant":
        return Schedule.constant(draw(st.floats(lo, min(hi, 3.0))), clamp=clamp)
    if form == "list":
        return Schedule.from_values(draw(st.lists(st.floats(lo, min(hi, 3.0)), min_size=steps, max_size=steps)),
                                    clamp=clamp)
    return Schedule(form=form, k=draw(st.integers(1, 50)), p=draw(st.floats(-3.0, 3.0)), clamp=clamp)


@st.composite
def venter_configs(draw):
    """Configs over every schedule form, undriven or driven (sigma > 0, gamma > 0)."""
    steps = draw(st.integers(1, 300))
    nonneg = (0.0, math.inf)
    driven = draw(st.booleans())
    return config(draw(any_schedule((0.0, 1.0), steps)),
                  gamma=draw(any_schedule(nonneg, steps)) if driven else ZERO,
                  omega=draw(st.just(ZERO) | any_schedule(nonneg, steps)),
                  sigma=draw(st.floats(0.0, 5.0, exclude_min=True)) if driven else 0.0,
                  x0=draw(st.floats(0.0, 100.0)), steps=steps)


class TestLoopsMatchNumpyScalarReference:
    @fixed_or_fresh(150)
    @given(venter_configs())
    def test_trace_and_expansion_residual_are_bit_identical(self, cfg):
        try:
            want = ref_venter_run(cfg)
        except (ScheduleViolationError, NonFiniteError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                venter_run(cfg)
            return
        got = venter_run(cfg)
        for name in TRACE_ARRAYS:
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        if cfg.sigma == 0 and not want.gamma_vals.any():
            info = verify_property_i(got, cfg, eps=1e-3).info
            assert (bits(info["expansion_residual"]), bits(info["expansion_remainder"])) == tuple(
                map(bits, ref_expansion(want)))

    def test_overflow_raises_the_same_error(self):
        cfg = config(Schedule.inv(k=2), gamma=Schedule.constant(0.5, clamp=(0.0, math.inf)), steps=2000)
        with pytest.raises(NonFiniteError) as want:
            ref_venter_run(cfg)
        with pytest.raises(NonFiniteError, match=f"^{re.escape(str(want.value))}$"):
            venter_run(cfg)

    def test_a_long_inv_pow_decay(self):
        cfg = config(Schedule.inv_pow(k=3, p=0.7), steps=20_000)
        got, want = venter_run(cfg), ref_venter_run(cfg)
        assert all(bits(getattr(got, name)) == bits(getattr(want, name)) for name in TRACE_ARRAYS)
        info = verify_property_i(got, cfg, eps=1e-3).info
        assert bits(info["expansion_residual"]) == bits(ref_expansion(want)[0])


# ---------------------------------------------------------------------------
# the checks over row blocks against the whole-trace checks they replaced


def ref_summability_worst(trace):
    """verify_summability's worst residual as it was, over whole-trace arrays."""
    lhs = (trace.sum_alpha_x - trace.sum_gamma_x) + trace.x[1:]
    rhs = trace.x[0] + trace.sum_omega
    residuals = np.abs(lhs - rhs)
    return float(np.max(residuals)) if len(residuals) else 0.0


def ref_remainder(trace):
    """verify_property_i's Horner remainder as it was, its terms one array."""
    k = trace.k_hat_final
    r = 0.0
    for term in memoryview(trace.omega_vals - (k + trace.alpha_vals - 1.0) * trace.x[:-1]):
        r = k * r + term
    return r


def same_float(a, b) -> bool:
    """Equal bits, or both NaN (a NaN's payload is not part of a verdict)."""
    return (math.isnan(a) and math.isnan(b)) or bits(a) == bits(b)


#: entries of a hand-made trace: ordinary values, and the ones that reach a verdict as NaN or inf
ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]))


@st.composite
def hand_made_traces(draw):
    """A VenterTrace of any length around the row block (8192 rows), its
    arrays drawn entry by entry, gamma zero or not."""
    steps = draw(st.sampled_from([1, 2, 7, 8191, 8192, 8193, 20_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    specials = draw(st.lists(st.tuples(st.sampled_from(TRACE_ARRAYS), st.integers(0, steps), ENTRIES),
                             max_size=6))
    arrays = {name: rng.uniform(0.0, 2.0, size=steps + (name in ("x", "sum_x"))) for name in TRACE_ARRAYS}
    if draw(st.booleans()):
        arrays["gamma_vals"][:] = 0.0
    for name, index, value in specials:
        arrays[name][index % len(arrays[name])] = value
    return VenterTrace(sigma=0.0, **arrays)


class TestChecksOverRowBlocks:
    @fixed_or_fresh(60)
    @given(hand_made_traces())
    def test_verdicts_match_the_whole_trace_checks(self, trace):
        cfg = config(Schedule.constant(0.5), steps=trace.steps)
        with np.errstate(all="ignore"):
            want = ref_summability_worst(trace)
            got = verify_summability(trace, cfg)
            assert same_float(got.value, want)
            scale = 1e-10 * (1.0 + trace.x[0] + float(trace.sum_omega[-1]))
            assert got.passed == (want <= scale) and same_float(got.margin, float(scale - want))
            if np.count_nonzero(trace.gamma_vals):
                return
            remainder = ref_remainder(trace)
            try:
                residual = float(trace.x[-1] - trace.k_hat_final ** trace.steps * trace.x[0] - remainder)
            except OverflowError:  # K_hat > 1, which no run reaches: both raise
                with pytest.raises(OverflowError):
                    verify_property_i(trace, cfg, eps=1e-3)
                return
            info = verify_property_i(trace, cfg, eps=1e-3).info
            assert same_float(info["expansion_remainder"], float(remainder))
            assert same_float(info["expansion_residual"], residual)
            assert info["expansion_holds"] == bool(abs(residual) <= info["expansion_tol"])

    def test_a_long_recursion_matches_the_whole_trace_checks(self):
        cfg = config(Schedule.inv_pow(k=3, p=0.7), steps=20_000)
        trace = venter_run(cfg)
        assert bits(verify_summability(trace, cfg).value) == bits(ref_summability_worst(trace))
        assert bits(verify_property_i(trace, cfg, eps=1e-3).info["expansion_remainder"]) == bits(ref_remainder(trace))

    def test_the_checks_hold_one_row_block_whatever_the_trace_length(self):
        # beyond the trace, each check holds a few row blocks of temporaries:
        # at 20,000 steps it held three 160 kB arrays before they ran in blocks
        def peak(steps):
            cfg = config(Schedule.inv_pow(k=3, p=0.7), steps=steps)
            trace = venter_run(cfg)
            verify_summability(trace, cfg), verify_property_i(trace, cfg, eps=1e-3)  # first-use allocations
            return max(traced_peak(lambda: verify_summability(trace, cfg))[0],
                       traced_peak(lambda: verify_property_i(trace, cfg, eps=1e-3))[0])

        short, long = peak(2_000), peak(20_000)
        assert long <= 1.1 * max(short, 2 * 8192 * 8) + 4096
