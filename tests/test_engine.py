"""The two-map iteration engine and its step identity."""

import tracemalloc

import numpy as np
import pytest

from jungckit import (
    GatePolicy,
    IndexOutOfRangeError,
    JungckConfig,
    Operator,
    Schedule,
    identity_residual,
    identity_residuals,
    make_operator_pair,
    run,
)


def scalar_pair(s=2.0, t=0.5):
    return make_operator_pair(Operator.scaled_identity(s, 1), Operator.scaled_identity(t, 1))


def scalar_config(**kw):
    defaults = dict(
        pair=scalar_pair(),
        a=Schedule.constant(0.5),
        b=Schedule.constant(0.5),
        z0=[1.0],
        steps=3,
    )
    defaults.update(kw)
    return JungckConfig(**defaults)


class TestPowerApply:
    def test_scalar_cube(self):
        tr = run(scalar_config(steps=4))
        assert tr.tz[3] == pytest.approx(0.5**3 * tr.z[3])
        assert tr.ty[3] == pytest.approx(0.5**3 * tr.y[3])

    def test_zeroth_power_is_identity(self):
        pair = make_operator_pair(Operator.scaled_identity(4.0, 2),
                                  Operator.from_matrix([[2.0, 1.0], [0.0, 2.0]]))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[3.0, -4.0], steps=3))
        assert np.array_equal(tr.tz[0], tr.z[0]) and np.array_equal(tr.ty[0], tr.y[0])

    def test_swap_matrix_squares_to_identity(self):
        pair = make_operator_pair(Operator.scaled_identity(2.0, 2),
                                  Operator.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[3.0, 4.0], steps=3))
        assert tr.tz[2] == pytest.approx(tr.z[2])
        assert tr.ty[2] == pytest.approx(tr.y[2])

    def test_modes_agree(self):
        # the same t as a matrix (one product with T^n) and as a callback (n compositions)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        m = m / np.linalg.norm(m, 2) * 1.1
        s = Operator.from_matrix(rng.normal(size=(4, 4)) + 4 * np.eye(4))
        z0 = rng.normal(size=4)

        def trace(t):
            return run(JungckConfig(pair=make_operator_pair(s, t), a=Schedule.constant(0.4),
                                    b=Schedule.constant(0.6), z0=z0, steps=31))

        by_matrix = trace(Operator.from_matrix(m))
        by_callback = trace(Operator.from_callable(lambda x: m @ x, 4))
        assert not by_matrix.diverged and by_matrix.n_raw == by_callback.n_raw == 31
        for name in ("z", "y", "tz", "ty"):
            a, b = getattr(by_matrix, name), getattr(by_callback, name)
            assert np.all(np.linalg.norm(a - b, axis=1) <= 1e-9 * (1 + np.linalg.norm(a, axis=1)))

    def test_overflow_raises(self):
        pair = make_operator_pair(Operator.identity(1), Operator.scaled_identity(1e200, 1))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[1e-250], steps=5))
        assert tr.diverged and tr.failure == "power 2 of the update map overflowed"
        assert tr.n_raw == 2

    def test_callback_needs_repeated_apply(self):
        pair = make_operator_pair(Operator.scaled_identity(2.0, 1),
                                  Operator.from_callable(lambda x: 0.5 * x, 1),
                                  s_solve=lambda v: v / 2.0)
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[1.0], steps=4))
        assert tr.tz[3] == pytest.approx(0.5**3 * tr.z[3])

    def test_memory_does_not_grow_with_powers(self):
        # every power of a d=60 map for 400 steps would take 11.5 MB; the
        # stream holds one, so only the O(steps * d) trace rows may grow
        rng = np.random.default_rng(8)
        d = 60
        raw = rng.normal(size=(d, d))
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(d, d)) + 30 * np.eye(d)),
                                  Operator.from_matrix(raw * (0.9 / np.linalg.norm(raw, 2))))

        def peak(steps):
            cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                               z0=rng.normal(size=d), steps=steps)
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        all_powers = 400 * d * d * 8
        assert peak(400) - peak(50) < all_powers / 4


class TestStep:
    def test_hand_computed_step(self):
        # d=1, s=2, t=0.5, a=b=0.5, z0=1: y0=0.75, Sy0=1.5, z1=0.4375, Sz1=0.875
        tr = run(scalar_config())
        assert tr.sy[0, 0] == pytest.approx(1.5)
        assert tr.y[0, 0] == pytest.approx(0.75)
        assert tr.sz[1, 0] == pytest.approx(0.875)
        assert tr.z[1, 0] == pytest.approx(0.4375)

    def test_a_zero_uses_only_z_powers(self):
        tr = run(scalar_config(a=Schedule.constant(0.0), b=Schedule.constant(0.7), steps=4))
        assert tr.sz[3] == pytest.approx(tr.tz[2])
        assert tr.tz[2] == pytest.approx(0.25 * tr.z[2])

    def test_b_one_maps_sy_to_power(self):
        tr = run(scalar_config(b=Schedule.constant(1.0), steps=4))
        assert tr.sy[3] == pytest.approx(tr.tz[3])
        assert tr.tz[3] == pytest.approx(0.5**3 * tr.z[3])


class TestRun:
    def test_three_step_scalar_trace(self):
        tr = run(scalar_config(steps=3))
        assert tr.sz.ravel() == pytest.approx([2.0, 0.875, 0.177734375])
        assert tr.z.ravel() == pytest.approx([1.0, 0.4375, 0.0888671875])
        assert tr.n_raw == 3 and tr.n_accel == 1

    def test_gates_off_accel_equals_raw(self):
        cfg = scalar_config(steps=10, gates_z=GatePolicy.always_off(), gates_y=GatePolicy.always_off())
        tr = run(cfg)
        assert np.array_equal(tr.asz, tr.sz[:8])
        assert np.array_equal(tr.asy, tr.sy[:8])

    def test_zero_update_map_kills_sz(self):
        pair = make_operator_pair(Operator.scaled_identity(2.0, 1), Operator.zero(1))
        cfg = JungckConfig(pair=pair, a=Schedule.constant(0.3), b=Schedule.constant(0.8),
                           z0=[1.0], steps=6)
        tr = run(cfg)
        # t^n vanishes for n >= 1, so every sz from index 2 on is exactly zero
        assert np.array_equal(tr.sz[2:], np.zeros_like(tr.sz[2:]))

    def test_zero_seed_stays_exactly_zero(self):
        rng = np.random.default_rng(9)
        s = Operator.from_matrix(rng.normal(size=(3, 3)) + 3 * np.eye(3))
        t = Operator.from_matrix(rng.normal(size=(3, 3)) * 0.2)
        cfg = JungckConfig(pair=make_operator_pair(s, t), a=Schedule.constant(0.4),
                           b=Schedule.constant(0.6), z0=[0.0, 0.0, 0.0], steps=8)
        tr = run(cfg)
        for arr in (tr.z, tr.y, tr.sz, tr.sy, tr.tz, tr.ty, tr.asz, tr.asy):
            assert not arr.any()

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(13)
        s = Operator.from_matrix(rng.normal(size=(4, 4)) + 4 * np.eye(4))
        t = Operator.from_matrix(rng.normal(size=(4, 4)) * 0.2)

        def make():
            cfg = JungckConfig(pair=make_operator_pair(s, t), a=Schedule.one_minus_inv(k=3),
                               b=Schedule.constant(0.5), z0=[1.0, -2.0, 0.5, 3.0], steps=40)
            return run(cfg)

        t1, t2 = make(), make()
        for name in ("z", "y", "sz", "sy", "asz", "asy"):
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()

    def test_divergent_run_returns_flagged_partial_trace(self):
        pair = make_operator_pair(Operator.identity(1), Operator.scaled_identity(10.0, 1))
        cfg = JungckConfig(pair=pair, a=Schedule.constant(1.0), b=Schedule.constant(1.0),
                           z0=[1e300], steps=400)
        tr = run(cfg)
        assert tr.diverged and tr.failure
        assert 0 < tr.n_raw < 400
        for arr in (tr.z, tr.y, tr.sz, tr.sy):
            assert np.isfinite(arr).all()

    def test_steps_below_window_need_gates_off(self):
        with pytest.raises(ValueError):
            scalar_config(steps=2)
        cfg = scalar_config(steps=2, gates_z=GatePolicy.always_off(), gates_y=GatePolicy.always_off())
        assert run(cfg).n_accel == 0


class TestIdentityResidual:
    def test_hand_evaluated_residual_is_zero(self):
        tr = run(scalar_config(steps=3))
        # b*Sz1 + (1-a)(1-b)*Sz0 - (1-a)*Sy0 - a*b*t^0(y0) telescopes to 0
        assert identity_residual(tr, 0) == 0.0

    def test_full_mixing_residual_is_zero(self):
        cfg = scalar_config(a=Schedule.constant(1.0), b=Schedule.constant(1.0), steps=5)
        tr = run(cfg)
        assert np.all(identity_residuals(tr) == 0.0)

    def test_out_of_range(self):
        tr = run(scalar_config(steps=3))
        with pytest.raises(IndexOutOfRangeError):
            identity_residual(tr, 2)

    def test_random_linear_configs_residual_property(self):
        # the identity is algebraic; only roundoff may remain
        rng = np.random.default_rng(101)
        for _ in range(20):
            d = 5
            s = Operator.from_matrix(rng.normal(size=(d, d)) + 4 * np.eye(d))
            raw = rng.normal(size=(d, d))
            t = Operator.from_matrix(raw * (rng.uniform(0.1, 0.9) / np.linalg.norm(raw, 2)))
            cfg = JungckConfig(
                pair=make_operator_pair(s, t),
                a=Schedule.from_values(rng.uniform(0, 1, size=30)),
                b=Schedule.from_values(rng.uniform(0, 1, size=30)),
                z0=rng.normal(size=d),
                steps=30,
            )
            tr = run(cfg)
            res = identity_residuals(tr)
            scale = 1.0 + np.linalg.norm(tr.sz[1:], axis=1)
            assert np.all(res <= 1e-9 * scale)


class TestLimitEquivalence:
    def test_contractive_config_accel_reaches_same_limit(self):
        from jungckit import estimate_limit

        rng = np.random.default_rng(23)
        raw = rng.normal(size=(3, 3))
        t = Operator.from_matrix(raw * (0.6 / np.linalg.norm(raw, 2)))
        s = Operator.from_matrix(rng.normal(size=(3, 3)) + 3 * np.eye(3))
        cfg = JungckConfig(pair=make_operator_pair(s, t), a=Schedule.constant(0.5),
                           b=Schedule.constant(0.5), z0=[1.0, 2.0, -1.0], steps=120)
        tr = run(cfg)
        l_raw = estimate_limit(tr.sz).value
        l_acc = estimate_limit(tr.asz).value
        assert np.linalg.norm(l_raw - l_acc) <= 1e-6 * (1 + np.linalg.norm(l_raw))
