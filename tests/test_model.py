"""Operator pairs, schedules and gate policies."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jungckit import (
    DimensionMismatchError,
    GatePolicy,
    IndexOutOfRangeError,
    NonFiniteError,
    Operator,
    Schedule,
    ScheduleViolationError,
    SingularOperatorError,
    SolveError,
    accelerate_sequence,
    as_state,
    make_operator_pair,
    min_modulus,
    schedule_eval,
    spectral_norm,
)


class TestAsState:
    def test_scalar_promotes_to_1d(self):
        v = as_state(3.0)
        assert v.shape == (1,) and v[0] == 3.0

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            as_state([1.0, float("nan")])

    def test_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            as_state([1.0, 2.0], dim=3)

    def test_copies_input(self):
        src = np.array([1.0, 2.0])
        v = as_state(src)
        v[0] = 99.0
        assert src[0] == 1.0


class TestOperatorPair:
    def test_identity_and_half_identity(self):
        pair = make_operator_pair(Operator.identity(2), Operator.scaled_identity(0.5, 2))
        assert pair.s_min_modulus == pytest.approx(1.0)
        assert pair.t_norm == pytest.approx(0.5)

    def test_diagonal_min_modulus_is_smallest_entry(self):
        s = Operator.from_matrix(np.diag([2.0, 0.5]))
        pair = make_operator_pair(s, Operator.identity(2))
        assert pair.s_min_modulus == pytest.approx(0.5)

    def test_rank_one_matrix_is_singular(self):
        s = Operator.from_matrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularOperatorError):
            make_operator_pair(s, Operator.identity(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_operator_pair(Operator.identity(2), Operator.identity(3))

    def test_callback_s_needs_solver(self):
        s = Operator.from_callable(lambda x: 2 * x, 2)
        with pytest.raises(SolveError):
            make_operator_pair(s, Operator.identity(2))
        pair = make_operator_pair(s, Operator.identity(2), s_solve=lambda v: v / 2)
        assert pair.s_min_modulus is None and not pair.norms_available

    def test_solve_probe_residuals(self):
        # 20 random probes per pair: s(solve(v)) must reproduce v
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.normal(size=(4, 4)) + 4 * np.eye(4)
            pair = make_operator_pair(Operator.from_matrix(m), Operator.identity(4))
            for _ in range(20):
                v = rng.normal(size=4)
                res = np.linalg.norm(pair.s(pair.solve(v)) - v)
                assert res <= 1e-10 * (1 + np.linalg.norm(v))

    def test_min_modulus_lower_bounds_image_norm(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 5))
        mu = min_modulus(m)
        for _ in range(100):
            x = rng.normal(size=5)
            assert mu * np.linalg.norm(x) <= np.linalg.norm(m @ x) * (1 + 1e-12)

    def test_spectral_norm_of_nonfinite_is_inf(self):
        assert spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]])) == np.inf


class TestSchedule:
    @pytest.mark.parametrize(
        "sched,n,expected",
        [
            (Schedule.constant(0.5), 7, 0.5),
            (Schedule.one_minus_inv(k=2), 0, 0.5),
            (Schedule.inv(k=2), 0, 0.5),
            (Schedule.inv_pow(k=2, p=2.0), 2, 1.0 / 16.0),
            (Schedule.from_values([0.1, 0.9]), 1, 0.9),
        ],
    )
    def test_evaluation(self, sched, n, expected):
        assert schedule_eval(sched, n) == pytest.approx(expected, rel=1e-15)

    def test_explicit_list_rejects_past_end(self):
        sched = Schedule.from_values([0.1, 0.2])
        with pytest.raises(IndexOutOfRangeError):
            schedule_eval(sched, 2)

    def test_clamping(self):
        sched = Schedule.constant(1.5, clamp=(0.0, 1.0))
        assert schedule_eval(sched, 0) == 1.0
        sched = Schedule.constant(-0.2, clamp=(0.0, 1.0))
        assert schedule_eval(sched, 3) == 0.0

    @given(
        st.sampled_from(["constant", "one-minus-inv", "inv", "inv-pow"]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_evaluation_is_pure(self, form, n):
        sched = Schedule(form=form, c=0.3, k=3, p=1.5)
        assert schedule_eval(sched, n) == schedule_eval(sched, n)

    @pytest.mark.parametrize(
        "sched,expected",
        [
            (Schedule.constant(0.5), True),
            (Schedule.constant(0.0), False),
            (Schedule.one_minus_inv(), True),
            (Schedule.inv(), True),
            (Schedule.inv_pow(p=2.0), False),
            (Schedule.inv_pow(p=1.0), True),
            (Schedule.from_values([0.5]), None),
        ],
    )
    def test_series_divergence_classification(self, sched, expected):
        assert sched.series_diverges() is expected

    @pytest.mark.parametrize("p,n", [(400.0, 4), (-2000.0, 0)])
    def test_inv_pow_overflow_is_a_schedule_violation(self, p, n):
        # (n + k)^400 overflows once n + k > 5; (n + k)^-2000 underflows to 0 and 1/0 fails
        with pytest.raises(ScheduleViolationError, match=rf"n={n} \(k=2, p={p!r}\)"):
            Schedule.inv_pow(k=2, p=p).array(n + 1)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            schedule_eval(Schedule.constant(0.5), -1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Schedule.constant(float("nan")),
            lambda: Schedule.constant(float("inf"), clamp=(0.0, float("inf"))),
            lambda: Schedule.inv_pow(p=float("nan")),
            lambda: Schedule.from_values([0.5, float("nan")]),
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestGatePolicy:
    # a window (0, 0, x) has second difference x, so these policies see d2 = x
    def test_modes_produce_binary_values(self):
        window = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -2.0]]
        for policy in (GatePolicy.always_on(), GatePolicy.always_off(), GatePolicy.threshold(0.5)):
            _, gate = accelerate_sequence(window, policy)
            assert set(np.unique(gate)) <= {0, 1}

    def test_threshold_gates_small_denominators(self):
        window = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.6, -0.7]]
        _, gate = accelerate_sequence(window, GatePolicy.threshold(0.5))
        assert gate.tolist() == [[0, 1, 1]]

    def test_explicit_list_broadcasts_and_exhausts(self):
        policy = GatePolicy.from_values([1, 0])
        _, gate = accelerate_sequence([[5.0, 5.0], [0.0, 0.0], [5.0, 5.0], [0.0, 0.0]], policy)
        assert gate.tolist() == [[1, 1], [0, 0]]
        with pytest.raises(IndexOutOfRangeError):
            accelerate_sequence([5.0, 0.0, 5.0, 0.0, 5.0], policy)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError):
            GatePolicy.threshold(float("nan"))

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            GatePolicy.from_values([0, 2])

    def test_is_always_off(self):
        assert GatePolicy.always_off().is_always_off
        assert GatePolicy.from_values([0, 0]).is_always_off
        assert not GatePolicy.from_values([0, 1]).is_always_off
