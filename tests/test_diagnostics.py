"""Limit estimation, acceleration ratios and equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    JungckConfig,
    LengthMismatchError,
    NotConvergingError,
    Operator,
    Schedule,
    SequenceTooShortError,
    acceleration_ratio,
    accelerate_sequence,
    build_convergence_report,
    estimate_limit,
    limit_identity_residuals,
    make_operator_pair,
    run,
    sequences_equivalent,
)
from jungckit.diagnostics import RATIO_FLOOR_SCALE
from jungckit.model import IterationTrace


def geometric(limit, coeff, ratio, length):
    return np.array([limit + coeff * ratio**n for n in range(length)])


class TestEstimateLimit:
    def test_constant_sequence(self):
        est = estimate_limit([4.0] * 8)
        assert est.value[0] == 4.0 and est.method == "last-term"

    def test_geometric_extrapolates_exactly(self):
        est = estimate_limit(geometric(3.0, 2.0, 0.5, 12))
        assert est.method == "extrapolation"
        assert est.value[0] == pytest.approx(3.0, abs=1e-12)

    def test_divergent_raises(self):
        with pytest.raises(NotConvergingError):
            estimate_limit(np.arange(15.0))

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            estimate_limit([1.0, 2.0, 3.0])

    def test_settled_sequence_prefers_last_term(self):
        seq = geometric(1.0, 1.0, 0.5, 80)  # tail fully converged in float64
        est = estimate_limit(seq)
        assert est.method == "last-term"
        assert est.value[0] == seq[-1]

    def test_recovers_limit_across_ratios(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            lim = rng.uniform(-10, 10)
            c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            r = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
            est = estimate_limit(geometric(lim, c, r, 10))
            assert abs(est.value[0] - lim) <= 1e-9 * (1 + abs(lim))

    def test_vector_sequences(self):
        seq = np.stack([geometric(1.0, 1.0, 0.5, 12), geometric(-2.0, 3.0, 0.3, 12)], axis=1)
        est = estimate_limit(seq)
        assert est.value == pytest.approx([1.0, -2.0], abs=1e-10)

    def test_huge_shrinking_differences_converge(self):
        # differences near 1e200 square past the largest float; their norms stay finite
        seq = np.stack([geometric(3e200, 1e200, 0.5, 12), geometric(-3e200, 2e200, 0.5, 12)], axis=1)
        est = estimate_limit(seq)  # raised NotConvergingError when every norm read inf
        assert est.method == "extrapolation"
        # squared differences overflow the corrector too, which then keeps a raw term
        assert est.value == pytest.approx([3e200, -3e200], rel=1e-2)


class TestAccelerationRatio:
    def test_geometric_ratios_are_zero(self):
        raw = geometric(3.0, 2.0, 0.5, 10)
        accel, _ = accelerate_sequence(raw)
        ratios = acceleration_ratio(raw, accel, np.array([3.0]))
        assert all(r <= 1e-12 for r in ratios)

    def test_identity_acceleration_gives_ones(self):
        raw = geometric(1.0, 1.0, 0.5, 10)
        ratios = acceleration_ratio(raw, raw[:-2], np.array([1.0]))
        assert all(r == pytest.approx(1.0) for r in ratios)

    def test_two_mode_sequence(self):
        raw = np.array([1.0 + 0.7**n + 0.5 * 0.2**n for n in range(16)])
        accel, _ = accelerate_sequence(raw)
        ratios = acceleration_ratio(raw, accel, np.array([1.0]))
        assert ratios[10] < 0.05

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            acceleration_ratio([1.0, 2.0, 3.0, 4.0], [1.0], np.array([0.0]))

    def test_omits_trailing_entries_at_limit(self):
        raw = np.concatenate([geometric(2.0, 1.0, 0.5, 6), [2.0, 2.0, 2.0]])
        accel, _ = accelerate_sequence(raw)
        ratios = acceleration_ratio(raw, accel, np.array([2.0]))
        assert len(ratios) < len(accel)

    def test_scale_invariance(self):
        raw = geometric(1.0, 1.0, 0.6, 12) + 0.25 * 0.2 ** np.arange(12)
        accel, _ = accelerate_sequence(raw)
        base = acceleration_ratio(raw, accel, np.array([1.0]))
        for s in (2.0, 0.125, 3.7, -5.0):
            scaled = acceleration_ratio(s * raw, s * accel, np.array([s * 1.0]))
            assert scaled == pytest.approx(base[:len(scaled)], rel=1e-12)


def reference_acceleration_ratio(raw, accel, limit, floor_scale=RATIO_FLOOR_SCALE):
    """acceleration_ratio as it was: one norm pair per index until the floor."""
    raw_arr, acc_arr = np.asarray(raw, dtype=float), np.asarray(accel, dtype=float)
    lim = np.atleast_1d(np.asarray(limit, dtype=float))
    floor = floor_scale * (1.0 + float(np.linalg.norm(lim)))
    ratios = []
    for k in range(acc_arr.shape[0]):
        den = float(np.linalg.norm(raw_arr[k] - lim))
        if den <= floor:
            break
        ratios.append(float(np.linalg.norm(acc_arr[k] - lim)) / den)
    return ratios


def reference_step_ratios(errors, limit):
    """build_convergence_report's step ratios as they were: one division per index."""
    floor = RATIO_FLOOR_SCALE * (1.0 + float(np.linalg.norm(limit)))
    return [float(errors[k + 1] / errors[k]) for k in range(len(errors) - 1) if errors[k] > floor]


def same_floats(got, want) -> bool:
    return len(got) == len(want) and np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


@st.composite
def ratio_cases(draw):
    """A raw sequence of 3..60 rows of dimension 1..59 with error rows of any
    magnitude from 1e-150 to 1e150, some rows exactly at the limit, and a
    corrected sequence of the same magnitudes."""
    rows, d = draw(st.integers(3, 60)), draw(st.integers(1, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lim = rng.normal(size=d) * draw(st.sampled_from([0.0, 1.0, 1e-100, 1e100]))
    err = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-150, 150, size=(rows, 1))
    err[rng.random(rows) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    accel = lim + rng.normal(size=(rows - 2, d)) * 10.0 ** rng.uniform(-150, 150, size=(rows - 2, 1))
    return lim + err, accel, lim


class TestArrayFormsMatchTheLoops:
    @settings(max_examples=200, deadline=None)
    @given(ratio_cases())
    def test_acceleration_ratio_bit_identical(self, case):
        raw, accel, lim = case
        with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e150 overflow in both
            got, want = acceleration_ratio(raw, accel, lim), reference_acceleration_ratio(raw, accel, lim)
        assert same_floats(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 80), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_step_ratios_bit_identical(self, rows, d, seed):
        # geometric rows settle into the floor within 80 steps at the faster ratios
        rng = np.random.default_rng(seed)
        n = np.arange(rows)[:, None]
        raw = rng.normal(size=d) + rng.normal(size=d) * rng.uniform(0.01, 0.9, size=d) ** n
        accel, _ = accelerate_sequence(raw)
        report = build_convergence_report(raw, accel)
        assert same_floats(report.step_ratios, reference_step_ratios(report.error_norms, report.estimated_limit))
        assert same_floats(report.accel_ratios,
                           reference_acceleration_ratio(raw, accel, report.estimated_limit))


class TestEquivalence:
    def test_identical_sequences(self):
        seq = geometric(3.0, 1.0, 0.5, 10)
        assert sequences_equivalent(seq, seq, tol=1e-9)

    def test_same_limit_different_rates(self):
        a = geometric(3.0, 1.0, 0.5, 40)
        b = geometric(3.0, 1.0, 0.9, 40)
        assert sequences_equivalent(a, b, tol=1e-6)

    def test_distinct_limits(self):
        a = geometric(0.0, 1.0, 0.5, 20)
        b = geometric(1.0, 1.0, 0.5, 20)
        assert not sequences_equivalent(a, b, tol=1e-6)

    def test_symmetry_and_reflexivity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            la, lb = rng.uniform(-5, 5, size=2)
            a = geometric(la, 1.0, 0.4, 20)
            b = geometric(lb, 1.0, 0.7, 20)
            assert sequences_equivalent(a, a, tol=1e-9)
            assert sequences_equivalent(a, b, tol=1e-6) == sequences_equivalent(b, a, tol=1e-6)


class TestLimitIdentityResiduals:
    def contractive_trace(self, a, b, steps=80):
        rng = np.random.default_rng(47)
        raw = rng.normal(size=(3, 3))
        t = Operator.from_matrix(raw * (0.5 / np.linalg.norm(raw, 2)))
        s = Operator.from_matrix(rng.normal(size=(3, 3)) + 3 * np.eye(3))
        cfg = JungckConfig(pair=make_operator_pair(s, t), a=a, b=b,
                           z0=[1.0, -1.0, 2.0], steps=steps)
        return run(cfg)

    def test_zero_outer_blend_compares_limits(self):
        # a = 0 collapses the expression to L_z - L_y at every step
        tr = self.contractive_trace(Schedule.constant(0.0), Schedule.constant(0.6))
        res = limit_identity_residuals(tr)
        assert np.allclose(res, res[0])
        assert res[-1] <= 1e-6

    def test_contractive_config_residuals_shrink(self):
        tr = self.contractive_trace(Schedule.constant(0.5), Schedule.constant(0.5))
        res = limit_identity_residuals(tr)
        assert res[-1] <= 1e-8
        assert res[-1] <= res[0]

    def test_full_blend_tracks_power_images(self):
        # a = b = 1: the expression is L_z - t^n(y_n), which must vanish
        tr = self.contractive_trace(Schedule.constant(1.0), Schedule.constant(1.0))
        res = limit_identity_residuals(tr)
        assert res[-1] <= 1e-10


def reference_limit_identity_residuals(trace):
    """limit_identity_residuals as it was: one norm per step."""
    l_z = estimate_limit(trace.sz).value
    l_y = estimate_limit(trace.sy).value
    a, b = trace.a_vals, trace.b_vals
    out = np.empty(trace.n_raw)
    for n in range(trace.n_raw):
        expr = (1.0 + a[n] * (b[n] - 1.0)) * l_z - (1.0 - a[n]) * l_y - a[n] * b[n] * trace.ty[n]
        out[n] = np.linalg.norm(expr)
    return out


@st.composite
def convergent_traces(draw):
    """5..60 rows of geometric s-images in dimension 1..300, power images of any
    magnitude from 1e-150 to 1e150, and blends that include 0 and 1."""
    rows, d = draw(st.integers(5, 60)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.arange(rows)[:, None]
    sz, sy = (rng.normal(size=d) + rng.normal(size=d) * rng.uniform(0.1, 0.9) ** n for _ in range(2))
    ty = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-150, 150, size=(rows, 1))
    a, b = (np.where(rng.random(rows) < 0.2, rng.integers(0, 2, rows), rng.random(rows)) for _ in range(2))
    empty = np.empty((0, d))
    return IterationTrace(z=sz, y=sy, sz=sz, sy=sy, ty=ty, asz=empty, asy=empty,
                          gates_z=empty, gates_y=empty, a_vals=a, b_vals=b, steps=rows)


class TestLimitIdentityResidualsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(convergent_traces())
    def test_bit_identical(self, trace):
        with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e150 overflow in both
            got, want = limit_identity_residuals(trace), reference_limit_identity_residuals(trace)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestConvergenceReport:
    def test_report_fields(self):
        raw = geometric(2.0, 1.0, 0.5, 20)
        accel, _ = accelerate_sequence(raw)
        report = build_convergence_report(raw, accel)
        assert report.estimated_limit[0] == pytest.approx(2.0, abs=1e-10)
        assert report.equivalent is True
        assert all(r == pytest.approx(0.5, rel=1e-6) for r in report.step_ratios[:10])
        assert report.accel_ratios[0] <= 1e-12
