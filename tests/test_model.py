"""Operator pairs, schedules and gate policies."""

import dataclasses
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jungckit import (
    DimensionMismatchError,
    GatePolicy,
    IndexOutOfRangeError,
    JungckConfig,
    NonFiniteError,
    Operator,
    OperatorPair,
    Schedule,
    ScheduleViolationError,
    SingularOperatorError,
    SolveError,
    accelerate_sequence,
    as_state,
    certify,
    make_operator_pair,
    run,
    spectral_norm,
)
from jungckit.model import SCHEDULE_FORMS, _inv_pow


def min_modulus(m):
    """Smallest singular value: inf ||Mx||/||x|| over nonzero x."""
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def schedule_eval(s, n):
    """A schedule at one step n, clamped, as scalar Python arithmetic."""
    if s.form == "constant":
        raw = s.c
    elif s.form == "one-minus-inv":
        raw = 1.0 - 1.0 / (n + s.k)
    elif s.form == "inv":
        raw = 1.0 / (n + s.k)
    elif s.form == "inv-pow":
        raw = _inv_pow(s, n)
    else:
        if n >= len(s.values):
            raise IndexOutOfRangeError(f"explicit schedule has {len(s.values)} values, asked for n={n}")
        raw = s.values[n]
    lo, hi = s.clamp
    return raw if lo <= raw <= hi else min(hi, max(lo, raw))


def reference_array(sched, count):
    """Schedule.array as it was: schedule_eval at each n."""
    return np.array([schedule_eval(sched, n) for n in range(count)], dtype=float)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def schedules(draw):
    form = draw(st.sampled_from(SCHEDULE_FORMS))
    clamp = tuple(sorted(draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))))
    if form == "constant":
        return Schedule.constant(draw(finite), clamp=clamp)
    if form == "list":
        return Schedule.from_values(draw(st.lists(finite, max_size=40)), clamp=clamp)
    return Schedule(form=form, k=draw(st.integers(1, 10**6)), p=draw(st.floats(-400.0, 400.0)), clamp=clamp)


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
        mu = make_operator_pair(Operator.from_matrix(m), Operator.identity(5)).s_min_modulus
        for _ in range(100):
            x = rng.normal(size=5)
            assert mu * np.linalg.norm(x) <= np.linalg.norm(m @ x) * (1 + 1e-12)

    def test_spectral_norm_of_nonfinite_is_inf(self):
        assert spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]])) == np.inf


#: the cached-inverse solve stays within SOLVE_C * d * eps * cond(s) of np.linalg.solve,
#: relative to ||s^-1|| ||v|| for every right-hand side v and to ||x_ref|| for gaussian ones;
#: relative to ||x_ref|| that is SOLVE_C * d * eps * cond(s)^2 along s's top singular vector
SOLVE_C = 4.0
EPS = np.finfo(float).eps


@st.composite
def conditioned_systems(draw):
    """(s, v, kind): a d x d matrix, d <= 50, with cond(s) up to about 1e10, and a
    right-hand side that is gaussian or lies along s's top or bottom left singular vector."""
    d = draw(st.integers(1, 50))
    log_cond = draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    logs = np.concatenate(([log_cond], rng.uniform(0.0, log_cond, size=max(d - 2, 0)), [0.0]))[:d]
    s = 10.0 ** draw(st.floats(-3.0, 3.0)) * (q1 @ np.diag(10.0 ** np.sort(logs)[::-1]) @ q2.T)
    kind = draw(st.sampled_from(("gaussian", "top", "bottom")))
    if kind == "gaussian":
        v = rng.normal(size=d)
    elif kind == "top":
        v = q1[:, 0] + 10.0 ** draw(st.floats(-14.0, 0.0)) * rng.normal(size=d)
    else:
        v = q1[:, -1].copy()
    return s, v, kind


class TestCachedInverse:
    @settings(max_examples=100, deadline=None)
    @given(conditioned_systems())
    def test_solve_matches_lu_within_tolerance(self, case):
        s, v, kind = case
        pair = make_operator_pair(Operator.from_matrix(s), Operator.identity(len(v)))
        x, x_ref = pair.solve(v), np.linalg.solve(s, v)
        sv = np.linalg.svd(s, compute_uv=False)
        cond = sv[0] / sv[-1]
        bound = SOLVE_C * len(v) * EPS * cond
        err = np.linalg.norm(x - x_ref)
        assert err <= bound * np.linalg.norm(v) / sv[-1]
        assert err <= bound * cond * np.linalg.norm(x_ref)
        if kind == "gaussian":
            # along the top singular vector x_ref is small and this can miss by
            # orders of magnitude: an explicit inverse is not backward stable
            assert err <= bound * np.linalg.norm(x_ref)
        if err > pair.solve_tol * np.linalg.norm(x_ref):
            # a pair whose solve can miss its tolerance says so
            assert pair.inverse_solve_warning is not None

    @settings(max_examples=60, deadline=None)
    @given(conditioned_systems())
    def test_norms_from_one_svd_are_bit_identical(self, case):
        s = case[0]
        pair = make_operator_pair(Operator.from_matrix(s), Operator.identity(len(s)))
        assert pair.s_norm == spectral_norm(s)
        assert pair.s_min_modulus == min_modulus(s)

    def test_default_solve_is_one_product_with_the_cached_inverse(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        pair = make_operator_pair(Operator.from_matrix(s), Operator.identity(6))
        assert np.array_equal(pair.s_inverse, np.linalg.inv(s))
        v = rng.normal(size=6)
        assert np.array_equal(pair.solve(v), pair.s_inverse @ v)

    def test_ill_conditioned_s_is_flagged(self, caplog):
        s = np.diag([1.0e4, 1.0])
        with caplog.at_level(logging.WARNING, logger="jungckit.model"):
            pair = make_operator_pair(Operator.from_matrix(s), Operator.identity(2))
        # 4 * 2 * eps * 1e8 = 1.8e-7 > 1e-10
        assert pair.inverse_solve_warning is not None
        assert "cond(s)=1.000e+04" in pair.inverse_solve_warning
        assert f"4*d*eps*cond(s)^2={8 * EPS * 1e8:.3e}" in pair.inverse_solve_warning
        assert [r.getMessage() for r in caplog.records] == [pair.inverse_solve_warning]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="jungckit.model"):
            assert make_operator_pair(Operator.from_matrix(s), Operator.identity(2),
                                      tol=1e-6).inverse_solve_warning is None
            assert make_operator_pair(Operator.from_matrix(np.diag([30.0, 1.0])),
                                      Operator.identity(2)).inverse_solve_warning is None
        assert not caplog.records

    @pytest.mark.filterwarnings("error")
    def test_a_bound_past_the_float_range_reads_inf(self):
        # cond(s) = 2e300: 4 * d * eps * cond(s)^2 overflowed a NumPy scalar product, with a warning
        pair = make_operator_pair(Operator.from_matrix([[2.0, 0.5], [1.0e300, 1.5]]), Operator.identity(2))
        assert "cond(s)=2.000e+300" in pair.inverse_solve_warning
        assert "4*d*eps*cond(s)^2=inf relative" in pair.inverse_solve_warning

    def test_inverse_is_derived_from_s(self):
        s = np.array([[2.0, 1.0], [0.0, 4.0]])
        pair = OperatorPair(Operator.from_matrix(s), Operator.identity(2), 1e-10)
        assert np.array_equal(pair.s_inverse, np.linalg.inv(s))
        assert np.array_equal(pair.solve(np.array([1.0, 2.0])), np.linalg.inv(s) @ [1.0, 2.0])
        with pytest.raises(TypeError):
            OperatorPair(Operator.from_matrix(s), Operator.identity(2), 1e-10, s_inverse=np.eye(2))
        moved = dataclasses.replace(pair, s=Operator.scaled_identity(4.0, 2))
        assert np.array_equal(moved.s_inverse, 0.25 * np.eye(2))
        assert np.array_equal(moved.solve(np.array([1.0, 2.0])), [0.25, 0.5])
        with pytest.raises(SingularOperatorError):
            OperatorPair(Operator.from_matrix(np.zeros((2, 2))), Operator.identity(2), 1e-10)

    def test_non_finite_solve_is_a_solve_error_in_the_trace(self):
        pair = make_operator_pair(Operator.scaled_identity(1e-5, 1), Operator.identity(1))
        with np.errstate(over="ignore"), pytest.raises(SolveError, match="^solve produced non-finite values$"):
            pair.solve(np.array([1e305]))
        # sy_0 = 0.5 * 1e300 + 0.5 * 1e305 is finite; y_0 = 1e5 * sy_0 is not
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[1e305], steps=3, gates_z=GatePolicy.always_off(),
                              gates_y=GatePolicy.always_off()))
        assert tr.diverged and tr.failure == "solve produced non-finite values" and tr.n_raw == 0

    def test_no_operator_holds_a_bad_matrix(self):
        for bad in ([[1.0, 2.0]], [1.0, 2.0], np.empty((0, 0))):
            with pytest.raises(DimensionMismatchError):
                Operator(bad)
        with pytest.raises(NonFiniteError):
            Operator([[1.0, np.nan], [0.0, 1.0]])
        m = np.eye(2)
        op = Operator(m)
        m[0, 0] = 5.0  # the operator keeps its own copy
        assert op.dim == 2 and np.array_equal(op.matrix, np.eye(2))
        assert np.array_equal(Operator.from_matrix([[3.0]]).matrix, [[3.0]])

    def test_pair_stays_hashable(self):
        pair = make_operator_pair(Operator.identity(2), Operator.identity(2))
        assert hash(pair) == hash(pair) and pair == pair


def readme_pair():
    return make_operator_pair(Operator.scaled_identity(2.0, 2),
                              Operator.from_matrix([[0.25, 0.1], [0.1, 0.2]]))


class TestPairDerivesItsData:
    def test_init_fields_are_the_three_inputs(self):
        names = [f.name for f in dataclasses.fields(OperatorPair) if f.init]
        assert names == ["s", "t", "solve_tol"]

    def test_constructor_and_factory_agree(self):
        s, t = Operator.from_matrix([[2.0, 1.0], [0.0, 4.0]]), Operator.from_matrix([[0.3, 0.1], [0.0, 0.2]])
        direct, made = OperatorPair(s, t, 1e-10), make_operator_pair(s, t)
        for name in ("s_min_modulus", "s_norm", "t_norm"):
            assert getattr(direct, name) == getattr(made, name) is not None
        assert direct.s_inverse.tobytes() == made.s_inverse.tobytes()

    def test_replaced_t_gets_its_own_norm(self):
        moved = dataclasses.replace(readme_pair(), t=Operator.scaled_identity(1.5, 2))
        assert moved.t_norm == 1.5
        cfg = JungckConfig(pair=moved, a=Schedule.constant(1.0), b=Schedule.one_minus_inv(k=2),
                           z0=[1.0, 0.5], steps=100)
        report = certify(cfg, horizon=200)
        assert not {"ii", "iii", "iv", "v"} & set(report.applying())
        assert report.predicted != "converges-to-zero"

    def test_replaced_s_is_checked_for_singularity(self):
        with pytest.raises(SingularOperatorError):
            dataclasses.replace(readme_pair(), s=Operator.scaled_identity(1e-13, 2))

    def test_replaced_solve_tol_reruns_the_checks(self, caplog):
        s = Operator.from_matrix(np.diag([1.0e4, 1.0]))
        with caplog.at_level(logging.WARNING, logger="jungckit.model"):
            loose = make_operator_pair(s, Operator.identity(2), tol=1e-6)
            assert loose.inverse_solve_warning is None and not caplog.records
            tight = dataclasses.replace(loose, solve_tol=1e-10)
        assert tight.solve_tol == 1e-10
        assert [r.getMessage() for r in caplog.records] == [tight.inverse_solve_warning] != [None]
        with pytest.raises(SingularOperatorError):
            dataclasses.replace(loose, solve_tol=1.0)
        for bad in (0.0, -1e-10, float("nan")):
            with pytest.raises(ValueError):
                dataclasses.replace(loose, solve_tol=bad)


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
        assert sched.array(n + 1)[n] == pytest.approx(expected, rel=1e-15)

    def test_explicit_list_rejects_past_end(self):
        sched = Schedule.from_values([0.1, 0.2])
        with pytest.raises(IndexOutOfRangeError):
            sched.array(3)

    def test_clamping(self):
        sched = Schedule.constant(1.5, clamp=(0.0, 1.0))
        assert sched.array(1)[0] == 1.0
        sched = Schedule.constant(-0.2, clamp=(0.0, 1.0))
        assert sched.array(4)[3] == 0.0

    @given(
        st.sampled_from(["constant", "one-minus-inv", "inv", "inv-pow"]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_evaluation_is_pure(self, form, n):
        # a value depends on its step only, not on how many steps are asked for
        sched = Schedule(form=form, c=0.3, k=3, p=1.5)
        assert sched.array(n + 1)[n] == sched.array(n + 5)[n]

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

    @given(schedules(), st.integers(0, 60))
    @example(Schedule.constant(-1.0, clamp=(0.0, -0.0)), 2)  # the clamped value keeps hi's sign
    @settings(max_examples=300, deadline=None)
    def test_array_matches_schedule_eval(self, sched, count):
        try:
            expected = reference_array(sched, count)
        except (IndexOutOfRangeError, ScheduleViolationError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                sched.array(count)
            return
        got = sched.array(count)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("form", ["one-minus-inv", "inv"])
    def test_closed_forms_match_over_a_long_range(self, form, k):
        sched = Schedule(form=form, k=k)
        assert sched.array(20_000).tobytes() == reference_array(sched, 20_000).tobytes()

    def test_array_logs_one_clamp_line(self, caplog):
        sched = Schedule.from_values([0.5, 2.0, 0.3, -1.0])
        with caplog.at_level(logging.DEBUG, logger="jungckit.model"):
            assert sched.array(4).tolist() == [0.5, 1.0, 0.3, 0.0]
        assert [r.getMessage() for r in caplog.records] == [
            "2 schedule value(s) clamped into [0, 1], first at n=1"
        ]

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
