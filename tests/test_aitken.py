"""The gated delta-squared corrector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixed_or_fresh

from jungckit import (
    GatePolicy,
    IndexOutOfRangeError,
    NonFiniteError,
    SequenceTooShortError,
    accelerate_sequence,
)
from jungckit.aitken import BLOCK_ELEMENTS, DEFAULT_FLOOR_SCALE, corrected_blocks
from jungckit.errors import DimensionMismatchError
from jungckit.model import GATE_MODES


def geometric(limit, coeff, ratio, length):
    return np.array([limit + coeff * ratio**n for n in range(length)])


def reference_accelerate(raw, policy, floor_scale=DEFAULT_FLOOR_SCALE):
    """The per-window loop the blocked corrector replaced, kept as its reference."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    accel = np.empty((arr.shape[0] - 2, arr.shape[1]))
    gates = np.empty(accel.shape, dtype=np.int8)
    for k in range(accel.shape[0]):
        s0, s1, s2 = arr[k], arr[k + 1], arr[k + 2]
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = s0 - 2.0 * s1 + s2
            if policy.mode == "always-on":
                wanted = np.ones_like(d2, dtype=np.int8)
            elif policy.mode == "always-off":
                wanted = np.zeros_like(d2, dtype=np.int8)
            elif policy.mode == "threshold":
                wanted = (np.abs(d2) > policy.tau).astype(np.int8)
            else:
                wanted = np.full(d2.shape, policy.values[k], dtype=np.int8)
            gate = wanted & (np.abs(d2) > floor_scale * (1.0 + np.abs(s0))).astype(np.int8)
            d1 = s1 - s0
            mask = gate.astype(bool)
            quotient = np.zeros_like(s0)
            np.divide(d1 * d1, d2, out=quotient, where=mask)
            out = np.where(mask, s0 - quotient, s0)
            # where d1 * d1 overflowed, the quotient is taken dividing first
            lost = mask & ~np.isfinite(out)
            out[lost] = s0[lost] - d1[lost] * (d1[lost] / d2[lost])
        bad = mask & ~np.isfinite(out)
        out[bad] = s0[bad]
        gate[bad] = 0
        out[~gate.astype(bool)] = s0[~gate.astype(bool)]
        accel[k], gates[k] = out, gate
    return accel, gates


class TestWindowCorrection:
    def test_exact_on_geometric_window(self):
        # x_n = 3 + 2*(0.5)^n gives the window (5, 4, 3.5); correction lands on 3
        accel, _ = accelerate_sequence([5.0, 4.0, 3.5])
        assert accel[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_constant_window_forces_gate_off(self):
        accel, gates = accelerate_sequence([7.0, 7.0, 7.0])
        assert gates.tolist() == [[0]]
        assert accel[0, 0] == 7.0

    def test_harmonic_window_quotient(self):
        # (1, 1/2, 1/3): second difference 1/3, correction 1 - (1/4)/(1/3) = 1/4
        accel, _ = accelerate_sequence([1.0, 0.5, 1.0 / 3.0])
        assert accel[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_floor_beats_policy(self):
        _, gates = accelerate_sequence([1.0, 1.0, 1.0 + 1e-15], GatePolicy.always_on())
        assert gates.tolist() == [[0]]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            accelerate_sequence(np.ones((3, 2, 2)))

    def test_componentwise_gating(self):
        # first component constant (gated), second geometric (corrected)
        accel, gates = accelerate_sequence([[7.0, 5.0], [7.0, 4.0], [7.0, 3.5]])
        assert gates.tolist() == [[0, 1]]
        assert accel[0, 0] == 7.0
        assert accel[0, 1] == pytest.approx(3.0, abs=1e-14)

    def test_non_finite_terms_rejected(self):
        with pytest.raises(NonFiniteError):
            accelerate_sequence([1.0, np.nan, 2.0])


@st.composite
def hostile_sequences(draw):
    """A raw sequence with magnitudes across 1e-300..1e300, constant and
    near-linear stretches (zero or tiny second differences), plus a policy.
    ``d`` is either small, so the windows span several blocks, or wider
    than one block, so every block holds a single window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(8, 64))
        n = draw(st.integers(3, 2 * (BLOCK_ELEMENTS // d) + 5))
    else:
        d = draw(st.integers(BLOCK_ELEMENTS + 1, BLOCK_ELEMENTS + 64))
        n = draw(st.integers(3, 6))
    lo, hi = sorted(draw(st.tuples(st.integers(-300, 300), st.integers(-300, 300))))
    raw = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(lo, hi, size=(n, d))
    for k in range(2, n):
        kind = rng.integers(0, 4)
        if kind == 0:
            raw[k] = raw[k - 1]
        elif kind == 1:
            raw[k] = 2.0 * raw[k - 1] - raw[k - 2] + raw[k] * 1e-17
    mode = draw(st.sampled_from(GATE_MODES))
    if mode == "threshold":
        policy = GatePolicy.threshold(10.0 ** draw(st.integers(-300, 300)))
    elif mode == "list":
        policy = GatePolicy.from_values(rng.integers(0, 2, size=n - 2))
    else:
        policy = GatePolicy(mode=mode)
    return raw, policy, 10.0 ** draw(st.integers(-16, -6))


class TestAccelerateSequence:
    def test_exact_on_geometric(self):
        accel, gates = accelerate_sequence([5.0, 4.0, 3.5, 3.25])
        assert accel.ravel() == pytest.approx([3.0, 3.0], abs=1e-14)
        assert gates.tolist() == [[1], [1]]

    @pytest.mark.parametrize("tail", [0, 5], ids=["live", "zero-tail"])
    def test_gates_take_one_byte(self, tail):
        # gates are 0 or 1, one byte each, also on the windows of a zero tail
        raw = np.concatenate([[[5.0], [4.0], [3.5], [3.25]], np.zeros((tail, 1))])
        _, gates = accelerate_sequence(raw)
        assert gates.dtype == np.int8 and set(gates.ravel().tolist()) <= {0, 1}

    def test_always_off_is_identity(self):
        raw = np.array([[1.0, 2.0], [0.5, 1.5], [0.25, 1.25], [0.125, 1.125]])
        accel, gates = accelerate_sequence(raw, GatePolicy.always_off())
        assert np.array_equal(accel, raw[:2])
        assert not gates.any()

    def test_constant_sequence_gates_off(self):
        accel, gates = accelerate_sequence([1.0, 1.0, 1.0, 1.0], floor_scale=1e-12)
        assert np.array_equal(accel.ravel(), [1.0, 1.0])
        assert not gates.any()

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            accelerate_sequence([1.0, 2.0])

    @pytest.mark.parametrize("floor_scale", [float("nan"), 0.0, -1e-12])
    def test_floor_scale_must_be_positive(self, floor_scale):
        # a NaN floor fails every comparison, so it switched every gate off without an error
        raw = geometric(3.0, 2.0, 0.5, 12)
        assert accelerate_sequence(raw, GatePolicy.always_on(), 1e-12)[1].sum() == 10
        with pytest.raises(ValueError, match="floor_scale must be positive"):
            accelerate_sequence(raw, GatePolicy.always_on(), floor_scale)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=0.9),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_exactness_property(self, limit, coeff, ratio, flip_c, flip_r):
        # every corrected term of L + c*r^n equals L, up to the gated tail
        c = -coeff if flip_c else coeff
        r = -ratio if flip_r else ratio
        raw = geometric(limit, c, r, 25)
        accel, _ = accelerate_sequence(raw)
        assert np.all(np.abs(accel.ravel() - limit) <= 1e-10 * (1 + abs(limit)))

    def test_gate_off_components_bit_identical(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 3))
        accel, _ = accelerate_sequence(raw, GatePolicy.always_off())
        assert np.array_equal(accel, raw[:4]) and accel.tobytes() == raw[:4].tobytes()

    def test_finite_output_on_hostile_windows(self):
        # tiny and exactly-zero denominators, huge magnitudes
        cases = [
            [1.0, 1.0, 1.0],
            [1e300, -1e300, 1e300],
            [1.0, 1.0 + 5e-13, 1.0],
            [0.0, 0.0, 0.0],
            [1e-300, 2e-300, 4e-300],
        ]
        for window in cases:
            accel, _ = accelerate_sequence(window)
            assert np.isfinite(accel).all()

    @given(hostile_sequences())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_window_reference_bit_for_bit(self, case):
        raw, policy, floor_scale = case
        accel, gates = accelerate_sequence(raw, policy, floor_scale)
        ref_accel, ref_gates = reference_accelerate(raw, policy, floor_scale)
        assert accel.tobytes() == ref_accel.tobytes()
        assert gates.dtype == ref_gates.dtype and gates.tobytes() == ref_gates.tobytes()

    def test_exact_where_squared_differences_overflow(self):
        # differences near 1e200 square past the largest float; dividing first keeps them
        raw = np.stack([geometric(3e200, 1e200, 0.5, 12), geometric(-3e200, 2e200, 0.5, 12),
                        geometric(1.0, 1.0, 0.5, 12)], axis=1)
        accel, gates = accelerate_sequence(raw)
        assert gates.all()
        assert accel[:, :2] == pytest.approx(np.broadcast_to([3e200, -3e200], (10, 2)), rel=1e-10)
        # a component whose squares stay finite keeps the product-first bits
        s0, s1, s2 = raw[:-2, 2], raw[1:-1, 2], raw[2:, 2]
        d1, d2 = s1 - s0, s0 - 2.0 * s1 + s2
        assert accel[:, 2].tobytes() == (s0 - d1 * d1 / d2).tobytes()

    def test_gate_list_must_cover_every_window(self):
        with pytest.raises(IndexOutOfRangeError):
            accelerate_sequence([1.0, 0.5, 0.25, 0.125], GatePolicy.from_values([1]))


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


@st.composite
def zero_tail_sequences(draw):
    """A sequence whose live prefix (rows up to the last nonzero one) is
    followed by a tail of +0 and -0 rows, plus a policy and a floor scale.

    The live prefix has zero rows inside it and, sometimes, NaN, +-inf and
    subnormal entries.  With a wide ``d`` a block holds few windows, and the
    tail starts within three rows of a block boundary.  A gate list may be
    shorter than the N - 2 windows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        live = draw(st.integers(0, 40))
    else:
        d = draw(st.integers(BLOCK_ELEMENTS // 64, BLOCK_ELEMENTS // 8))
        live = max(0, draw(st.integers(0, 2)) * (BLOCK_ELEMENTS // d) + draw(st.integers(-3, 3)))
    n = max(3, live + draw(st.integers(0, 40)))
    lo, hi = sorted(draw(st.tuples(st.integers(-320, 300), st.integers(-320, 300))))
    raw = signed_zeros(rng, (n, d))
    raw[:live] = rng.normal(size=(live, d)) * 10.0 ** rng.uniform(lo, hi, size=(live, d))
    for k in range(live - 1):
        if rng.random() < 0.2:
            raw[k] = signed_zeros(rng, d)
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, -1e-310]), max_size=3)):
        if live:
            raw[rng.integers(0, live), rng.integers(0, d)] = value
    if live and not raw[live - 1].any():
        raw[live - 1, rng.integers(0, d)] = rng.choice([1.0, -3e-320])
    mode = draw(st.sampled_from(GATE_MODES))
    if mode == "threshold":
        policy = GatePolicy.threshold(10.0 ** draw(st.integers(-300, 300)))
    elif mode == "list":
        policy = GatePolicy.from_values(rng.integers(0, 2, size=draw(st.integers(0, n - 2))))
    else:
        policy = GatePolicy(mode=mode)
    return raw, policy, 10.0 ** draw(st.integers(-16, -6))


def blocked_error(raw, policy):
    """The error a blocked corrector over every window raises, or None: the
    first block of windows either holding a non-finite term or running past
    a gate list decides which."""
    windows, d = raw.shape[0] - 2, raw.shape[1]
    rows = max(1, BLOCK_ELEMENTS // d)
    for lo in range(0, windows, rows):
        hi = min(lo + rows, windows)
        if not np.isfinite(raw[lo:hi + 2]).all():
            return NonFiniteError, "sequence has non-finite entries"
        if policy.mode == "list" and hi > len(policy.values):
            count = len(policy.values)
            return IndexOutOfRangeError, f"explicit gate list has {count} values, asked for index {count}"
    return None


class TestZeroTail:
    """A sequence that ends in rows of +-0: the results and the errors are
    those of the formula over every window, zero windows included."""

    def check(self, raw, policy, floor_scale=DEFAULT_FLOOR_SCALE):
        error = blocked_error(raw, policy)
        if error is not None:
            kind, message = error
            with pytest.raises(kind) as raised:
                accelerate_sequence(raw, policy, floor_scale)
            assert str(raised.value) == message
            return
        accel, gates = accelerate_sequence(raw, policy, floor_scale)
        ref_accel, ref_gates = reference_accelerate(raw, policy, floor_scale)
        assert accel.tobytes() == ref_accel.tobytes()
        assert gates.dtype == ref_gates.dtype and gates.tobytes() == ref_gates.tobytes()

    @given(zero_tail_sequences())
    @fixed_or_fresh(60)
    def test_matches_the_reference_bit_for_bit(self, case):
        self.check(*case)

    @pytest.mark.parametrize("mode", GATE_MODES)
    @pytest.mark.parametrize("n", [3, 4, 20])
    def test_all_zero_input(self, mode, n):
        raw = signed_zeros(np.random.default_rng(n), (n, 3))
        policy = GatePolicy.from_values([1] * (n - 2)) if mode == "list" else GatePolicy(mode=mode, tau=0.0)
        self.check(raw, policy)
        accel, gates = accelerate_sequence(raw, policy)
        assert accel.tobytes() == raw[:-2].tobytes() and not gates.any()

    @pytest.mark.parametrize("live", [0, 1, 2, 3])
    def test_three_terms(self, live):
        raw = np.array([[0.5, -0.0], [0.25, 2.0], [-0.125, 1.0]])
        raw[live:] = -0.0
        self.check(raw, GatePolicy.always_on())

    @pytest.mark.parametrize("values", [0, 3, 4, 5, 7])
    def test_short_gate_list_raises_as_before(self, values):
        # four live rows (windows 0..3 touch them) and six zero rows: a list
        # that covers the live windows but not the zero ones still raises
        raw = np.zeros((10, 2))
        raw[:4] = [[5.0, 1.0], [4.0, 0.5], [3.5, 0.25], [3.25, 0.125]]
        policy = GatePolicy.from_values([1] * values)
        with pytest.raises(IndexOutOfRangeError, match=f"^explicit gate list has {values} values, "
                                                       f"asked for index {values}$"):
            accelerate_sequence(raw, policy)
        with pytest.raises(IndexError):
            reference_accelerate(raw, policy)


class TestCorrectedBlocks:
    """The streamed corrector gives the whole corrector's rows, block by block."""

    @given(zero_tail_sequences(), st.sampled_from([1, 2, 7, 64]))
    @fixed_or_fresh(60)
    def test_blocks_join_to_the_reference(self, case, rows):
        raw, policy, floor_scale = case
        n, d = raw.shape
        if policy.mode == "list" and len(policy.values) < n - 2:
            # refused on the call, before a block is made
            count = len(policy.values)
            with pytest.raises(IndexOutOfRangeError, match=f"^explicit gate list has {count} values, "
                                                           f"asked for index {count}$"):
                corrected_blocks(raw, policy, floor_scale, rows)
            return
        blocks = corrected_blocks(raw, policy, floor_scale, rows)
        if not np.isfinite(raw).all():
            with pytest.raises(NonFiniteError, match="^sequence has non-finite entries$"):
                list(blocks)
            return
        windows, accels, gates = zip(*blocks)
        starts = range(0, n - 2, rows)
        assert [len(a) for a in accels] == [min(rows, n - 2 - lo) for lo in starts]
        assert all(w.tobytes() == raw[lo:lo + len(a) + 2].tobytes() for lo, w, a in zip(starts, windows, accels))
        ref_accel, ref_gates = reference_accelerate(raw, policy, floor_scale)
        for got, want in zip(map(np.concatenate, (accels, gates)), (ref_accel, ref_gates)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_a_source_of_rows_is_sliced_block_by_block(self):
        # rows made on demand: each block asks for its rows and its two-row lookahead
        values = geometric(3.0, 2.0, 0.5, 20)[:, None]
        asked = []

        class Rows:
            shape = values.shape

            def __getitem__(self, rows):
                asked.append((rows.start, rows.stop))
                return values[rows]

        parts = list(corrected_blocks(Rows(), GatePolicy.always_on(), DEFAULT_FLOOR_SCALE, 8))
        assert asked == [(0, 10), (8, 18), (16, 20)]
        assert np.concatenate([accel for _, accel, _ in parts]).tobytes() == accelerate_sequence(values)[0].tobytes()


class TestAccelerationEffect:
    def test_two_mode_sequence_ratio_shrinks(self):
        # dominant mode 0.7^n plus faster 0.2^n: corrected error must crush raw
        raw = np.array([1.0 + 0.7**n + 0.5 * 0.2**n for n in range(20)])
        accel, _ = accelerate_sequence(raw)
        ratios = np.abs(accel.ravel() - 1.0) / np.abs(raw[:-2] - 1.0)
        assert ratios[10] < 0.05
