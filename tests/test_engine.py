"""The two-map iteration engine and its step identity."""

import dataclasses
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    GatePolicy,
    IndexOutOfRangeError,
    JungckConfig,
    NonFiniteError,
    Operator,
    Schedule,
    SolveError,
    aitken,
    engine,
    identity_residuals,
    make_operator_pair,
    run,
    spectral_norm,
    stability,
)
from jungckit.aitken import accelerate_sequence
from jungckit.engine import BLOCK_ELEMENTS, matrix_power_blocks
from jungckit.model import IterationTrace, safe_row_norms

from conftest import fixed_or_fresh, traced_peak


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
        # b = 0.5: sy_3 = 0.5 sz_3 + 0.5 t^3(z_3)
        tr = run(scalar_config(steps=4))
        assert tr.sy[3] == pytest.approx(0.5 * tr.sz[3] + 0.5 * 0.5**3 * tr.z[3])
        assert tr.ty[3] == pytest.approx(0.5**3 * tr.y[3])

    def test_zeroth_power_is_identity(self):
        pair = make_operator_pair(Operator.scaled_identity(4.0, 2),
                                  Operator.from_matrix([[2.0, 1.0], [0.0, 2.0]]))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[3.0, -4.0], steps=3))
        # sy_0 = (1 - b_0) sz_0 + b_0 t^0(z_0), evaluated as run does
        b = tr.b_vals[0]
        assert np.array_equal(tr.sy[0], (1.0 - b) * tr.sz[0] + b * tr.z[0])
        assert np.array_equal(tr.ty[0], tr.y[0])

    def test_swap_matrix_squares_to_identity(self):
        pair = make_operator_pair(Operator.scaled_identity(2.0, 2),
                                  Operator.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[3.0, 4.0], steps=3))
        # b = 0.5 and t^2 = I: sy_2 = 0.5 sz_2 + 0.5 z_2
        assert tr.sy[2] == pytest.approx(0.5 * tr.sz[2] + 0.5 * tr.z[2])
        assert tr.ty[2] == pytest.approx(tr.y[2])

    def test_modes_agree(self):
        # one product with T^n, as run does, against n compositions of t
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        m = m / np.linalg.norm(m, 2) * 1.1
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(4, 4)) + 4 * np.eye(4)),
                                  Operator.from_matrix(m))
        z0 = rng.normal(size=4)
        by_matrix = run(JungckConfig(pair=pair, a=Schedule.constant(0.4), b=Schedule.constant(0.6),
                                     z0=z0, steps=31))

        def composed(x, n):
            for _ in range(n):
                x = m @ x
            return x

        z, sz, rows = z0, pair.s.matrix @ z0, {"z": [], "y": [], "ty": []}
        for n in range(31):
            tz = composed(z, n)
            y = reference_solve(pair, 0.4 * sz + 0.6 * tz)
            ty = composed(y, n)
            for name, row in (("z", z), ("y", y), ("ty", ty)):
                rows[name].append(row)
            sz = 0.6 * tz + 0.4 * ty
            z = reference_solve(pair, sz)
        assert not by_matrix.diverged and by_matrix.n_raw == 31
        for name, want in rows.items():
            a, b = getattr(by_matrix, name), np.array(want)
            assert np.all(np.linalg.norm(a - b, axis=1) <= 1e-9 * (1 + np.linalg.norm(a, axis=1)))

    def test_overflow_raises(self):
        pair = make_operator_pair(Operator.identity(1), Operator.scaled_identity(1e200, 1))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[1e-250], steps=5))
        assert tr.diverged and tr.failure == "power 2 of the update map overflowed"
        assert tr.n_raw == 2

    def test_callback_needs_repeated_apply(self):
        pair = make_operator_pair(Operator.scaled_identity(2.0, 1), Operator.scaled_identity(0.5, 1))
        tr = run(JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                              z0=[1.0], steps=4))
        # b = 0.5: sy_3 = 0.5 sz_3 + 0.5 t^3(z_3), with T^3 the third power of t
        assert tr.sy[3] == pytest.approx(0.5 * tr.sz[3] + 0.5 * 0.5**3 * tr.z[3])

    def test_memory_does_not_grow_with_powers(self):
        # every power of a d=60 map for 400 steps would take 11.5 MB; the
        # stream holds one, so only the O(steps * d) trace rows may grow:
        # one (350, d) array of floats per row kind the run keeps (z, y,
        # sz, sy, ty, asz, asy) and an eighth of one for each of the two
        # one-byte gate arrays, 7.25 arrays (7.29 as measured, 9.04 with
        # 8-byte gates)
        rng = np.random.default_rng(8)
        d = 60
        raw = rng.normal(size=(d, d))
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(d, d)) + 30 * np.eye(d)),
                                  Operator.from_matrix(raw * (0.9 / np.linalg.norm(raw, 2))))

        def peak(steps):
            cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                               z0=rng.normal(size=d), steps=steps)
            return traced_peak(lambda: run(cfg))[0]

        growth = peak(400) - peak(50)
        assert growth < 400 * d * d * 8 / 4
        assert growth / (350 * d * 8) < 7.5


class TestStep:
    def test_hand_computed_step(self):
        # d=1, s=2, t=0.5, a=b=0.5, z0=1: y0=0.75, Sy0=1.5, z1=0.4375, Sz1=0.875
        tr = run(scalar_config())
        assert tr.sy[0, 0] == pytest.approx(1.5)
        assert tr.y[0, 0] == pytest.approx(0.75)
        assert tr.sz[1, 0] == pytest.approx(0.875)
        assert tr.z[1, 0] == pytest.approx(0.4375)

    def test_a_zero_uses_only_z_powers(self):
        # a = 0: sz_{n+1} = t^n(z_n)
        tr = run(scalar_config(a=Schedule.constant(0.0), b=Schedule.constant(0.7), steps=4))
        assert tr.sz[3] == pytest.approx(0.25 * tr.z[2])

    def test_b_one_maps_sy_to_power(self):
        # b = 1: sy_n = t^n(z_n)
        tr = run(scalar_config(b=Schedule.constant(1.0), steps=4))
        assert tr.sy[3] == pytest.approx(0.5**3 * tr.z[3])


class TestRun:
    def test_three_step_scalar_trace(self):
        tr = run(scalar_config(steps=3))
        assert tr.sz.ravel() == pytest.approx([2.0, 0.875, 0.177734375])
        assert tr.z.ravel() == pytest.approx([1.0, 0.4375, 0.0888671875])
        assert tr.n_raw == 3 and tr.n_accel == 1

    @pytest.mark.parametrize("steps", [1, 2, 10])
    def test_gates_take_one_byte(self, steps):
        # a trace too short for the corrector gets empty gates of the same dtype
        off = GatePolicy.always_off()
        tr = run(scalar_config(steps=steps, gates_z=off if steps < 3 else GatePolicy.always_on(), gates_y=off))
        assert tr.gates_z.dtype == tr.gates_y.dtype == np.int8
        assert tr.gates_z.shape == (max(steps - 2, 0), 1)

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
        for arr in (tr.z, tr.y, tr.sz, tr.sy, tr.ty, tr.asz, tr.asy):
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

    def test_corrected_rows_are_computed_together_on_first_read(self, monkeypatch):
        calls = []

        def counted(raw, *args, real=aitken.accelerate_sequence):
            calls.append(raw)
            return real(raw, *args)

        monkeypatch.setattr(aitken, "accelerate_sequence", counted)
        tr = run(scalar_config(steps=10, gates_y=GatePolicy.threshold(1e-3)))
        assert calls == [] and tr.n_accel == 8
        gates = tr.gates_y
        # the corrector reads the stored rows: all ten here, as the state never settles
        assert len(calls) == 2 and calls[0] is tr.live.sz and calls[1] is tr.live.sy
        assert tr.n_live == tr.n_raw == 10 and tr.sz is tr.live.sz and tr.sy is tr.live.sy
        for name in ("asz", "asy", "gates_z", "gates_y"):
            part = getattr(tr, name)
            assert not part.flags.writeable and len(part) == 8
        assert tr.gates_y is gates and len(calls) == 2
        want = accelerate_sequence(tr.sy, GatePolicy.threshold(1e-3))
        assert tr.asy.tobytes() == want[0].tobytes() and gates.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("which", ["gates_z", "gates_y"])
    def test_a_gate_list_too_short_raises_from_run(self, which):
        # 10 rows have 8 windows; the corrector refuses 7 gates, and run
        # refuses them where it used to run the corrector
        short = GatePolicy.from_values([1] * 7)
        with pytest.raises(IndexOutOfRangeError) as corrector:
            accelerate_sequence(run(scalar_config(steps=10)).sz, short)
        with pytest.raises(IndexOutOfRangeError, match=f"^{re.escape(str(corrector.value))}$"):
            run(scalar_config(steps=10, **{which: short}))
        tr = run(scalar_config(steps=10, **{which: GatePolicy.from_values([1] * 8)}))
        assert getattr(tr, which).shape == (8, 1)


class TestIdentityResidual:
    def test_hand_evaluated_residual_is_zero(self):
        tr = run(scalar_config(steps=3))
        # b*Sz1 + (1-a)(1-b)*Sz0 - (1-a)*Sy0 - a*b*t^0(y0) telescopes to 0
        assert identity_residuals(tr)[0] == 0.0

    def test_full_mixing_residual_is_zero(self):
        cfg = scalar_config(a=Schedule.constant(1.0), b=Schedule.constant(1.0), steps=5)
        tr = run(cfg)
        assert np.all(identity_residuals(tr) == 0.0)

    def test_out_of_range(self):
        # the last row has no successor, so it gets no residual
        assert len(identity_residuals(run(scalar_config(steps=3)))) == 2
        one_row = run(scalar_config(steps=1, gates_z=GatePolicy.always_off(), gates_y=GatePolicy.always_off()))
        assert identity_residuals(one_row).shape == (0,)

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


    def test_run_solves_without_factoring(self):
        # s is factored once, when the pair is built; a step only multiplies
        rng = np.random.default_rng(8)
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(6, 6)) + 4 * np.eye(6)),
                                  Operator.scaled_identity(0.5, 6))
        cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                           z0=rng.normal(size=6), steps=20)
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("LU solve")), \
                mock.patch.object(np.linalg, "inv", side_effect=AssertionError("inverse")):
            tr = run(cfg)
        assert not tr.diverged and tr.n_raw == 20


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


# ---------------------------------------------------------------------------
# the one-power stream and the per-power norm loop that the blocked stream
# replaced, kept as its reference


def reference_matrix_powers(t):
    m = np.eye(t.dim)
    n = 0
    while True:
        yield m
        n += 1
        with np.errstate(over="ignore", invalid="ignore"):
            m = t.matrix @ m
        if not np.all(np.isfinite(m)):
            raise NonFiniteError(f"power {n} of the update map overflowed")


def reference_power_norms(cfg, horizon):
    norms = np.full(horizon + 1, math.inf)
    try:
        for n, m in zip(range(horizon + 1), reference_matrix_powers(cfg.pair.t)):
            norms[n] = spectral_norm(m)
    except NonFiniteError:
        pass
    return norms


def stream_norms(cfg, horizon):
    """The norms of t^0..t^horizon as the certificate constants read them:
    ``stability._norms`` over the blocks of ``matrix_power_blocks`` up to
    t^horizon, inf from the first overflowed power on."""
    norms = np.full(horizon + 1, math.inf)
    n = 0
    try:
        for block in matrix_power_blocks(cfg.pair.t):
            block = block[:horizon + 1 - n]
            norms[n:n + len(block)] = stability._norms(cfg.pair, np.arange(n, n + len(block)), block, n)[0]
            n += len(block)
            if n > horizon:
                break
    except NonFiniteError:
        pass
    return norms


def reference_run(cfg):
    """``run`` fed one power per block by the reference stream."""
    one_power_blocks = lambda t: (m[None] for m in reference_matrix_powers(t))
    with mock.patch.object(engine, "matrix_power_blocks", one_power_blocks):
        return run(cfg)


TRACE_FIELDS = ("z", "y", "sz", "sy", "ty", "asz", "asy", "gates_z", "gates_y", "a_vals", "b_vals")


def block_len(d):
    return max(1, BLOCK_ELEMENTS // (d * d))


def block_schedule(d, count):
    """Lengths of the blocks that hold powers 0..count-1, the last one cut at count."""
    lengths, k = [], 1
    while sum(lengths) < count:
        lengths.append(min(k, count - sum(lengths)))
        k = min(2 * k, block_len(d))
    return lengths


@st.composite
def stream_cases(draw):
    """A map of dimension 1..50 (many, few or one power per block) and a count
    of powers that ends on a block boundary or inside a block; about half of
    the maps overflow at power 2 (the first that can: T^1 = T @ I is exact)
    or at the first, middle or last power of a block."""
    d = draw(st.integers(1, 50))
    k = block_len(d)
    count = max(3, draw(st.integers(1, 2)) * k + draw(st.sampled_from([0, 1, k // 2, k - 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = sorted(n for n in {2, k - 1, k, k + k // 2, 2 * k - 1, 2 * k} if n >= 2)
    overflow_at = draw(st.one_of(st.none(), st.sampled_from(targets)))
    if overflow_at is None:
        raw = rng.normal(size=(d, d))
        t = raw * (draw(st.floats(0.3, 1.2)) / np.linalg.norm(raw, 2))
    else:
        # entries of (c P)^n are 0 or c^n, and c^n first overflows at n = overflow_at
        c = 2.0 ** (1024 / (overflow_at - 0.5))
        t = c * np.eye(d)[rng.permutation(d)]
    s = rng.normal(size=(d, d)) + (d + 2) * np.eye(d)
    cfg = JungckConfig(pair=make_operator_pair(Operator.from_matrix(s), Operator.from_matrix(t)),
                       a=Schedule.constant(0.4), b=Schedule.one_minus_inv(k=3),
                       gates_z=GatePolicy.threshold(1e-9),
                       z0=rng.normal(size=d) * (1.0 if overflow_at is None else 1e-300), steps=count)
    return cfg, count - 1, overflow_at


class TestPowerStream:
    def test_blocks_of_powers(self):
        # blocks of 1, 2, 4, ... powers up to the block length, then that length
        t = Operator.from_matrix([[0.0, 2.0], [1.0, 0.0]])
        k = block_len(2)
        blocks = []
        for block in matrix_power_blocks(t):
            blocks.append(block.copy())
            if sum(map(len, blocks)) >= 2 * k:
                break
        lengths = [len(b) for b in blocks]
        assert lengths == block_schedule(2, sum(lengths)) and lengths[-2:] == [k, k]
        assert lengths[:3] == [1, 2, 4]
        powers = [m.copy() for _, m in zip(range(sum(lengths)), reference_matrix_powers(t))]
        assert np.array_equal(np.concatenate(blocks), np.array(powers))

    def test_many_powers_per_block_share_one_buffer(self):
        # T^0 comes alone; every later block of a d=5 map (81 powers at most) reuses one buffer
        stream = matrix_power_blocks(Operator.from_matrix(np.eye(5) * 0.5))
        assert len(next(stream)) == 1
        assert len({next(stream).__array_interface__["data"][0] for _ in range(9)}) == 1

    def test_overflow_yields_the_finite_prefix_then_raises(self):
        k = block_len(1)
        t = Operator.scaled_identity(2.0 ** (1024 / (k + 2.5)), 1)  # power k + 3 overflows
        lengths = []
        with pytest.raises(NonFiniteError, match=rf"^power {k + 3} of the update map overflowed$"):
            for block in matrix_power_blocks(t):
                lengths.append(len(block))
        # the block from T^(k - 1) on is cut after its fourth power
        assert lengths == block_schedule(1, k + 3) and lengths[-1] == 4

    def test_consumer_error_state_is_left_alone(self):
        before = np.geterr()
        # blocks [T^0] and [T^1] (cut before T^2, which overflows), then the error
        stream = matrix_power_blocks(Operator.scaled_identity(1e200, 2))
        with pytest.raises(NonFiniteError):
            for _ in stream:
                assert np.geterr() == before
        assert np.geterr() == before

    @given(stream_cases())
    @fixed_or_fresh(80)
    def test_power_norms_match_the_reference(self, case):
        # the t^0 and t^1 shortcuts and the cut at the first overflowed power
        cfg, horizon, overflow_at = case
        norms = stream_norms(cfg, horizon)
        assert norms.tobytes() == reference_power_norms(cfg, horizon).tobytes()
        if overflow_at is not None:
            assert np.isfinite(norms).sum() == min(overflow_at, horizon + 1)

    @given(stream_cases())
    @fixed_or_fresh(60)
    def test_run_matches_the_reference(self, case):
        cfg = case[0]
        got, ref = run(cfg), reference_run(cfg)
        for name in TRACE_FIELDS:
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (got.diverged, got.failure) == (ref.diverged, ref.failure)

    def test_power_norms_memory_does_not_grow_with_the_horizon(self):
        # one power at d=100 (one per block) takes 80 kB; the certificate
        # constants of an orthogonal t with b = 1 - 1/(n + 2) read and SVD
        # every power, and hold a few powers at a time whatever the horizon,
        # plus about 80 bytes of per-power scalars
        rng = np.random.default_rng(8)
        d = 100
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(d, d)) + 30 * np.eye(d)),
                                  Operator.from_matrix(np.linalg.qr(rng.normal(size=(d, d)))[0]))
        cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.one_minus_inv(k=2),
                           z0=rng.normal(size=d), steps=3)

        def peak(horizon):
            peak, constants = traced_peak(lambda: stability.compute_constants(cfg, horizon))
            assert constants.powers_read == horizon + 1
            return peak

        stability.compute_constants(cfg, 50)  # numpy's first-use allocations happen outside the measurement
        power = d * d * 8
        assert peak(400) - peak(50) < power
        assert peak(400) < 4 * power


# ---------------------------------------------------------------------------
# the zero fill and the block checks: the step loop that computes every row
# and checks every quantity as it is made, kept as the reference
# (``reference_run`` patches only the power stream, so it takes both too)


def reference_check_finite(name, v, n):
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} is non-finite at step {n}")
    return v


def reference_solve(pair, v):
    """``s^-1 v`` as the run forms it, one product with the cached inverse,
    and a ``SolveError`` when it is not finite."""
    u = pair.s_inverse @ v
    if not np.isfinite(u).all():
        raise SolveError("solve produced non-finite values")
    return u


def reference_apply_power(power, n, x):
    out = power @ x
    if not np.isfinite(out).all():
        raise NonFiniteError(f"t^{n} x is non-finite")
    return out


def reference_step_run(cfg):
    """``run`` as a plain step loop that checks every quantity as it is made:
    no blocks, no zero fill, one power at a time from the reference stream."""
    n_steps = cfg.steps
    a_vals, b_vals = cfg.a.prefix(n_steps), cfg.b.prefix(n_steps)
    stream = reference_matrix_powers(cfg.pair.t)
    d = cfg.dim
    z, y, sz, sy, ty = (np.empty((n_steps, d)) for _ in range(5))
    z[0] = cfg.z0
    m = 0
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sz[0] = reference_check_finite("s(z0)", cfg.pair.s(cfg.z0), 0)
            for n, power in zip(range(n_steps), stream):
                tz = reference_apply_power(power, n, z[n])
                sy[n] = reference_check_finite("sy_n", (1.0 - b_vals[n]) * sz[n] + b_vals[n] * tz, n)
                y[n] = reference_solve(cfg.pair, sy[n])
                ty[n] = reference_apply_power(power, n, y[n])
                m = n + 1
                if m == n_steps:
                    break
                sz[m] = reference_check_finite("sz_next", (1.0 - a_vals[n]) * tz + a_vals[n] * ty[n], n)
                z[m] = reference_solve(cfg.pair, sz[m])
    except (NonFiniteError, SolveError) as exc:
        failure = str(exc)

    z, y, sz, sy, ty = (rows[:m] for rows in (z, y, sz, sy, ty))
    if m >= 3:
        asz, gz = accelerate_sequence(sz, cfg.gates_z, cfg.floor_scale)
        asy, gy = accelerate_sequence(sy, cfg.gates_y, cfg.floor_scale)
    else:
        asz = asy = np.empty((0, d))
        gz = gy = np.empty((0, d), dtype=np.int8)
    # the corrector runs here, on the rows as they are made, not on first read as in a trace
    return SimpleNamespace(z=z, y=y, sz=sz, sy=sy, ty=ty, asz=asz, asy=asy, gates_z=gz, gates_y=gy,
                           a_vals=a_vals[:m], b_vals=b_vals[:m], n_raw=m, steps=n_steps,
                           diverged=failure is not None, failure=failure)


def settle_row(trace):
    """The first row whose z and sz are +0 in every entry (n_raw if none)."""
    plus_zero = ~trace.z.view(np.int64).any(axis=1) & ~trace.sz.view(np.int64).any(axis=1)
    plus_zero[:1] = False  # z_0 is the seed, never tested
    return int(np.argmax(plus_zero)) if plus_zero.any() else trace.n_raw


SCHEDULE_CHOICES = (
    lambda rng, n: Schedule.constant(0.0),
    lambda rng, n: Schedule.constant(1.0),
    lambda rng, n: Schedule.constant(0.4),
    lambda rng, n: Schedule.one_minus_inv(k=3),
    lambda rng, n: Schedule.inv(k=2),
    lambda rng, n: Schedule.from_values(rng.uniform(0, 1, n)),
    # clamp ranges that let values leave [0, 1], and one that makes every value inf
    lambda rng, n: Schedule.from_values(rng.uniform(-0.5, 1.5, n), clamp=(-0.25, 1.25)),
    lambda rng, n: Schedule.constant(-0.3, clamp=(-1.0, 2.0)),
    lambda rng, n: Schedule.constant(1.7, clamp=(-1.0, 2.0)),
    lambda rng, n: Schedule.constant(0.5, clamp=(math.inf, math.inf)),
)


@st.composite
def fill_cases(draw):
    """A config that may reach an exactly zero state: contractive, zero,
    nilpotent and norm-1 maps, maps just above norm 1 and maps whose powers
    overflow, of dimension 1..50 with s and t of either sign, seeds of +0,
    -0 and tiny entries, and blends that reach 0, 1 and beyond."""
    d = draw(st.one_of(st.just(1), st.integers(1, 50)))
    steps = draw(st.one_of(st.integers(1, 3), st.integers(4, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["contractive", "zero", "nilpotent", "norm one", "above one", "overflow"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "contractive":
        raw = rng.normal(size=(d, d))
        t = raw * (draw(st.floats(0.05, 0.95)) / np.linalg.norm(raw, 2))
    elif kind == "zero":
        t = np.zeros((d, d))
    elif kind == "nilpotent":
        t = np.triu(rng.normal(size=(d, d)), 1) * 0.5
    elif kind == "norm one":
        t = np.eye(d)[rng.permutation(d)]  # ||t|| is exactly 1
    elif kind == "above one":
        t = np.eye(d)[rng.permutation(d)] * np.nextafter(1.0, 2.0)
    else:
        # entries of (c P)^n are 0 or c^n, which first overflows at n = 2 or 3
        t = 2.0 ** (1024 / (draw(st.sampled_from([2, 3])) - 0.5)) * np.eye(d)[rng.permutation(d)]
    t = sign * t
    s = draw(st.sampled_from([1.0, -1.0])) * (rng.normal(size=(d, d)) + (d + 2) * np.eye(d))
    z0 = draw(st.sampled_from(["+0", "-0", "tiny", "normal"]))
    z0 = {"+0": np.zeros(d), "-0": -np.zeros(d), "tiny": rng.normal(size=d) * 1e-300,
          "normal": rng.normal(size=d)}[z0]
    a = draw(st.sampled_from(SCHEDULE_CHOICES))(rng, steps)
    b = draw(st.sampled_from(SCHEDULE_CHOICES))(rng, steps)
    gates = GatePolicy.always_off() if steps < 3 else draw(st.sampled_from(
        [GatePolicy.always_on(), GatePolicy.threshold(1e-9), GatePolicy.always_off()]))
    pair = make_operator_pair(Operator.from_matrix(s), Operator.from_matrix(t))
    return JungckConfig(pair=pair, a=a, b=b, gates_z=gates, gates_y=gates, z0=z0, steps=steps)


def assert_same_trace(got, want):
    """``got``, a trace, holds the arrays of ``want`` (gates included),
    bit for bit (-0.0 apart from +0.0), and the row norms of its z; it
    stores every row, or the rows before its state settled."""
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    with np.errstate(over="ignore"):  # the norm of a row near the float limit can be inf
        norms, got_norms = safe_row_norms(want.z), got.z_norms
    assert got_norms.dtype == norms.dtype and got_norms.tobytes() == norms.tobytes()
    assert got.z_norms is got_norms
    assert (got.n_raw, got.n_accel) == (want.n_raw, max(want.n_raw - 2, 0))
    assert got.n_live == got.n_raw or (not got.diverged and got.n_live == settle_row(want))
    assert (got.diverged, got.failure) == (want.diverged, want.failure)


class TestZeroFill:
    @given(fill_cases())
    @fixed_or_fresh(150)
    def test_run_matches_the_full_step_loop(self, cfg):
        assert_same_trace(run(cfg), reference_step_run(cfg))

    def test_overflowing_powers_still_truncate_a_zero_state(self):
        # ||t|| > 1: the zero state is not filled, and power 2 overflows as without it
        pair = make_operator_pair(Operator.identity(2), Operator.scaled_identity(1e200, 2))
        cfg = JungckConfig(pair=pair, a=Schedule.constant(0.5), b=Schedule.constant(0.5),
                           z0=[0.0, 0.0], steps=5)
        tr = run(cfg)
        assert tr.diverged and tr.failure == "power 2 of the update map overflowed" and tr.n_raw == 2
        assert_same_trace(tr, reference_step_run(cfg))

    def test_a_settled_run_reads_no_power_past_its_settle_row(self, monkeypatch):
        # a dense d=60 map holds one power per block, as d=300 does
        rng = np.random.default_rng(8)
        d = 60
        raw = rng.normal(size=(d, d))
        pair = make_operator_pair(Operator.from_matrix(rng.normal(size=(d, d)) + 30 * np.eye(d)),
                                  Operator.from_matrix(raw * (0.6 / np.linalg.norm(raw, 2))))
        cfg = JungckConfig(pair=pair, a=Schedule.one_minus_inv(k=2), b=Schedule.constant(0.5),
                           z0=rng.normal(size=d), steps=300)
        drawn = []

        def counted(t, blocks=engine.matrix_power_blocks):
            for block in blocks(t):
                drawn.append(len(block))
                yield block

        monkeypatch.setattr(engine, "matrix_power_blocks", counted)
        tr = run(cfg)
        settled = settle_row(tr)
        assert settled < 100 and not tr.diverged and tr.n_raw == 300
        # powers 0..settled-1 made rows 1..settled; none after
        assert sum(drawn) == settled
        assert_same_trace(tr, reference_step_run(cfg))


#: the nine full-length arrays a trace builds on first read
PUBLIC_ARRAYS = ("z", "y", "sz", "sy", "ty", "asz", "asy", "gates_z", "gates_y")


def d60_config(t_norm, steps, seed=8):
    """A dense d=60 config (one power per block, as at d=300): a map of norm
    ``t_norm`` settles to +0 within 100 rows, an orthogonal map (``t_norm``
    None) never does.  Its schedules are evaluated through 3000 steps, so a
    run reads values they keep."""
    rng = np.random.default_rng(seed)
    d = 60
    s = rng.normal(size=(d, d)) + 30 * np.eye(d)
    if t_norm is None:
        t = np.linalg.qr(rng.normal(size=(d, d)))[0]
    else:
        raw = rng.normal(size=(d, d))
        t = raw * (t_norm / np.linalg.norm(raw, 2))
    cfg = JungckConfig(pair=make_operator_pair(Operator.from_matrix(s), Operator.from_matrix(t)),
                       a=Schedule.one_minus_inv(k=2), b=Schedule.constant(0.5), z0=rng.normal(size=d), steps=steps)
    cfg.a.prefix(3000), cfg.b.prefix(3000)
    return cfg


class TestLiveRows:
    def test_a_settled_run_peaks_the_same_for_any_step_count(self):
        # the run stops at its settle row and stores the rows before it; one
        # that allocated and filled every row peaked about 10x higher at 3000
        # steps than at 300
        cfg = d60_config(0.6, 300)
        run(cfg)  # numpy's first-use allocations happen outside the measurement

        def peak(steps):
            peak, trace = traced_peak(lambda: run(dataclasses.replace(cfg, steps=steps)))
            assert trace.n_raw == steps and trace.n_live == settle_row(trace) < 64
            return peak

        short, long = peak(300), peak(3000)
        assert long <= 1.1 * short and short <= 1.1 * long

    @pytest.mark.parametrize("steps", [300, 1000])
    def test_a_run_that_never_settles_stores_exactly_its_rows(self, steps):
        # the arrays grow 64, 128, 256, ... rows and end at steps rows, with
        # no spare ones; while they grow, the old arrays are let go one at a
        # time, so one of them at most, under steps rows, is held beside the
        # five new ones: the run peaks below 1.2x its trace plus the two
        # powers of t it holds (and a few small arrays)
        cfg = d60_config(None, steps)
        run(cfg)
        peak, trace = traced_peak(lambda: run(cfg))
        assert trace.n_live == trace.n_raw == steps and not trace.diverged
        held = 0
        for rows in trace.live:
            assert rows.shape == (steps, 60) and (rows.base is None or rows.base.shape == (steps, 60))
            held += rows.nbytes
        assert trace.z is trace.live.z and trace.ty is trace.live.ty  # returned with no copy
        power = 60 * 60 * 8
        assert peak <= 1.2 * held + 2 * power + 8192

    @pytest.mark.parametrize("t_norm", [0.6, None])
    def test_public_arrays_are_built_once_and_read_only(self, t_norm):
        trace = run(d60_config(t_norm, 200))
        assert (trace.n_live < trace.n_raw) == (t_norm is not None)
        for name in PUBLIC_ARRAYS + ("z_norms",):
            first = getattr(trace, name)
            assert getattr(trace, name) is first and not first.flags.writeable, name
            assert len(first) == (trace.n_accel if name.startswith(("a", "gates")) else trace.n_raw), name
        for rows in trace.live:
            assert not rows.flags.writeable
        assert_same_trace(trace, reference_step_run(d60_config(t_norm, 200)))

    def test_a_trace_built_from_full_arrays_reads_the_same(self):
        # a trace given every row, zero tail included, stores them all, and
        # corrects and reads them as the run's trace of the live rows does
        trace = run(d60_config(0.6, 200))
        assert trace.n_live < trace.n_raw
        full = IterationTrace(z=np.array(trace.z), y=np.array(trace.y), sz=np.array(trace.sz),
                              sy=np.array(trace.sy), ty=np.array(trace.ty), a_vals=trace.a_vals,
                              b_vals=trace.b_vals, policy_z=trace.policy_z, policy_y=trace.policy_y,
                              floor_scale=trace.floor_scale, steps=trace.steps)
        assert full.n_live == full.n_raw == trace.n_raw
        assert_same_trace(trace, full)


# ---------------------------------------------------------------------------
# a state that overflows inside a block of powers: ``run`` steps on past it
# unchecked, then replays the block with every check


#: what step n checks, in order: t^n(z_n), sy_n, the solve for y_n,
#: t^n(y_n), sz_n+1 and the solve for z_n+1
STATE_SITES = ("t^n x", "sy_n", "solve y", "t^n y", "sz_next", "solve z")

#: the seventh block of powers, 63..126, the same at d=1 and d=5
LONG_BLOCK = range(63, 127)


def state_overflow_config(site, d, row, steps=200):
    """A config of dimension d whose first non-finite quantity is ``site`` at
    step ``row``: s and t are multiples of the identity, z0 is a constant
    vector, and every power of t is finite."""
    a, b = np.zeros(steps), np.zeros(steps)
    s, t = 1.0, 1.0
    if site in ("t^n x", "t^n y"):
        # s = I, a = b = 0: z_n+1 = t^n(z_n), the largest quantity of step n,
        # so log2 z_n = log2 c + slope * n (n - 1) / 2
        slope = 1 / 32
        t = 2.0 ** slope
        if site == "t^n x":
            top = 1024 - slope * row / 2  # log2 z_row: t^row(z_row) is past the range
        else:
            b[row] = 1.0  # y_row = t^row(z_row), so t^row(y_row) = t^2row(z_row)
            top = 1024 - 1.5 * slope * row
        c = 2.0 ** (top - slope * row * (row - 1) / 2)
    elif site in ("sy_n", "sz_next"):
        # s = t = I, a = b = 0: z_n = c; a blend weight of -1 doubles c out of range
        c = 1.5 * 2.0 ** 1023
        (b if site == "sy_n" else a)[row] = -1.0
    else:
        # s = I / 2, a = b = 0: z_n+1 = 2 z_n, up to z_row = 1.5 * 2^1023;
        # b_row = 1 makes sy_row = z_row, so y_row = 2 z_row
        s = 0.5
        c = 1.5 * 2.0 ** (1023 - row)
        if site == "solve y":
            b[row] = 1.0
    pair = make_operator_pair(Operator.scaled_identity(s, d), Operator.scaled_identity(t, d))
    return JungckConfig(pair=pair, a=Schedule.from_values(a, clamp=(-1.0, 1.0)),
                        b=Schedule.from_values(b, clamp=(-1.0, 1.0)), z0=np.full(d, c), steps=steps)


def state_failure(site, row):
    """The failure message and row count of a run that fails at ``site`` in step ``row``."""
    return {
        "t^n x": (f"t^{row} x is non-finite", row),
        "sy_n": (f"sy_n is non-finite at step {row}", row),
        "solve y": ("solve produced non-finite values", row),
        "t^n y": (f"t^{row} x is non-finite", row),
        "sz_next": (f"sz_next is non-finite at step {row}", row + 1),
        "solve z": ("solve produced non-finite values", row + 1),
    }[site]


class TestStateOverflowInsideABlock:
    def test_the_long_block(self):
        for d in (1, 5):
            starts = np.cumsum([0] + block_schedule(d, 200))
            assert LONG_BLOCK.start in starts and LONG_BLOCK.stop in starts

    @pytest.mark.parametrize("row", [LONG_BLOCK[0], LONG_BLOCK[32], LONG_BLOCK[-1]])
    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("site", STATE_SITES)
    def test_run_matches_the_full_step_loop(self, site, d, row):
        cfg = state_overflow_config(site, d, row)
        want = reference_step_run(cfg)
        assert (want.failure, want.n_raw) == state_failure(site, row)
        assert np.isfinite(want.z).all() and np.isfinite(want.ty).all()
        assert_same_trace(run(cfg), want)

    def test_a_state_failure_before_a_power_overflow_in_the_same_block(self):
        # t = diag(1, 1, 1, 1, tau): power 110 overflows, and the stream cuts
        # the block 63..126 there, but only the last entry of the state meets
        # tau, and it stays 0; sy_95 overflows first
        d, row, overflow_at, steps = 5, 95, 110, 200
        t = np.eye(d)
        t[-1, -1] = 2.0 ** (1024 / (overflow_at - 0.5))
        z0 = np.full(d, 1.5 * 2.0 ** 1023)
        z0[-1] = 0.0
        b = np.zeros(steps)
        pair = make_operator_pair(Operator.identity(d), Operator.from_matrix(t))

        def config(b):
            return JungckConfig(pair=pair, a=Schedule.constant(0.0), b=Schedule.from_values(b, clamp=(-1.0, 1.0)),
                                z0=z0, steps=steps)

        want = reference_step_run(config(b))
        assert (want.failure, want.n_raw) == (f"power {overflow_at} of the update map overflowed", overflow_at)
        assert_same_trace(run(config(b)), want)
        b[row] = -1.0
        want = reference_step_run(config(b))
        assert (want.failure, want.n_raw) == (f"sy_n is non-finite at step {row}", row)
        assert_same_trace(run(config(b)), want)


# ---------------------------------------------------------------------------
# identity residuals: the per-index loop they replaced, kept as the reference


def identity_residual(trace, n):
    """The step identity's residual at one index n with a successor row; a
    finite residual whose square overflows takes its scaled norm."""
    a_n = trace.a_vals[n]
    b_n = trace.b_vals[n]
    lhs = b_n * trace.sz[n + 1] + (1.0 - a_n) * (1.0 - b_n) * trace.sz[n]
    rhs = (1.0 - a_n) * trace.sy[n] + a_n * b_n * trace.ty[n]
    norm = float(np.linalg.norm(lhs - rhs))
    if math.isinf(norm) and np.isfinite(lhs - rhs).all():
        return float(safe_row_norms((lhs - rhs)[None])[0])  # its square overflowed
    return norm


def reference_identity_residuals(trace):
    """identity_residuals as it was: identity_residual at each index."""
    return np.array([identity_residual(trace, n) for n in range(max(trace.n_raw - 1, 0))])


@st.composite
def residual_traces(draw):
    """A trace of 0..40 rows of dimension 1..300 with row magnitudes from 1e-300
    to 1e300 (squares over- and underflow) and blends that include 0 and 1."""
    rows, d = draw(st.integers(0, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sz, sy, ty = (rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-300, 300, size=(rows, 1))
                  for _ in range(3))
    a, b = (np.where(rng.random(rows) < 0.2, rng.integers(0, 2, rows), rng.random(rows)) for _ in range(2))
    return IterationTrace(z=sz, y=sy, sz=sz, sy=sy, ty=ty, a_vals=a, b_vals=b, policy_z=GatePolicy.always_on(),
                          policy_y=GatePolicy.always_on(), floor_scale=1e-12, steps=max(rows, 1))


class TestIdentityResidualsMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(residual_traces())
    def test_bit_identical(self, trace):
        with np.errstate(over="ignore", invalid="ignore"):  # squares past 1e154 overflow in the reference
            got, want = identity_residuals(trace), reference_identity_residuals(trace)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(stream_cases())
    def test_bit_identical_on_runs(self, case):
        trace = run(case[0])
        with np.errstate(over="ignore", invalid="ignore"):  # near-overflow traces square to inf in the reference
            assert identity_residuals(trace).tobytes() == reference_identity_residuals(trace).tobytes()
