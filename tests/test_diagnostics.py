"""Limit estimation, acceleration ratios and equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jungckit import (
    LengthMismatchError,
    NotConvergingError,
    SequenceTooShortError,
    acceleration_ratio,
    accelerate_sequence,
    build_convergence_report,
    estimate_limit,
    sequences_equivalent,
)
from jungckit.aitken import BLOCK_ELEMENTS
from jungckit.diagnostics import RATIO_FLOOR_SCALE, SETTLE_SCALE
from jungckit.model import exact_row_norms, unoverflowed
from conftest import fixed_or_fresh, traced_peak


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
        # the corrector divides first where the squared differences overflow
        assert est.value == pytest.approx([3e200, -3e200], rel=1e-10)


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


def norm(v):
    """``np.linalg.norm`` of a vector, or its scaled norm where the squares overflow."""
    v = np.atleast_1d(v)
    with np.errstate(over="ignore"):
        return float(unoverflowed(np.atleast_1d(np.linalg.norm(v)), v[None])[0])


def reference_acceleration_ratio(raw, accel, limit, floor_scale=RATIO_FLOOR_SCALE):
    """acceleration_ratio as it was: one norm pair per index until the floor."""
    raw_arr, acc_arr = np.asarray(raw, dtype=float), np.asarray(accel, dtype=float)
    lim = np.atleast_1d(np.asarray(limit, dtype=float))
    floor = floor_scale * (1.0 + norm(lim))
    ratios = []
    for k in range(acc_arr.shape[0]):
        den = norm(raw_arr[k] - lim)
        if den <= floor:
            break
        ratios.append(norm(acc_arr[k] - lim) / den)
    return ratios


def reference_step_ratios(errors, limit):
    """build_convergence_report's step ratios as they were: one division per index."""
    floor = RATIO_FLOOR_SCALE * (1.0 + norm(limit))
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
    @given(st.integers(5, 80), st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e200]))
    def test_step_ratios_bit_identical(self, rows, d, seed, scale):
        # geometric rows settle into the floor within 80 steps at the faster
        # ratios; near 1e200 the squares of their errors overflow
        rng = np.random.default_rng(seed)
        n = np.arange(rows)[:, None]
        raw = (rng.normal(size=d) + rng.normal(size=d) * rng.uniform(0.01, 0.9, size=d) ** n) * scale
        accel, _ = accelerate_sequence(raw)
        report = build_convergence_report(raw, accel)
        assert np.all(np.isfinite(report.error_norms))
        assert same_floats(report.error_norms, [norm(row - report.estimated_limit) for row in raw])
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


class TestConvergenceReport:
    def test_report_fields(self):
        raw = geometric(2.0, 1.0, 0.5, 20)
        accel, _ = accelerate_sequence(raw)
        report = build_convergence_report(raw, accel)
        assert report.estimated_limit[0] == pytest.approx(2.0, abs=1e-10)
        assert report.equivalent is True
        assert all(r == pytest.approx(0.5, rel=1e-6) for r in report.step_ratios[:10])
        assert report.accel_ratios[0] <= 1e-12


# ---------------------------------------------------------------------------
# the checks after a run, over row blocks


def reference_estimate_limit(seq):
    """estimate_limit's outcome as it was, with the differences of every row:
    the value's bits and the method, or the error's type."""
    arr = np.asarray(seq, dtype=float)
    with np.errstate(over="ignore"):
        diffs = exact_row_norms(np.diff(arr, axis=0))
    settled = diffs[-1] <= SETTLE_SCALE * (1.0 + float(exact_row_norms(arr[-1:])[0]))
    if len(diffs) >= 10 and not settled and np.all(diffs[-9:] >= diffs[-10:-1] * (1.0 - 1e-12)):
        return NotConvergingError
    if settled:
        return arr[-1].tobytes(), "last-term"
    return accelerate_sequence(arr[-3:])[0][0].tobytes(), "extrapolation"


class TestBlockedNorms:
    @fixed_or_fresh(40)
    @given(st.sampled_from([7, 50, 300]), st.integers(0, 2**32 - 1), st.data())
    def test_acceleration_ratio_stops_in_any_block(self, d, seed, data):
        # the one raw row at the limit falls in the first, a middle or the
        # last row block, on a block boundary or next to one, or nowhere
        step = BLOCK_ELEMENTS // d
        rows = data.draw(st.integers(3, 3 * step + 3))
        stop = data.draw(st.sampled_from([rows, 0, step - 1, step, step + 1, rows // 2, rows - 3]))
        rng = np.random.default_rng(seed)
        lim = rng.normal(size=d)
        err = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-12, 0, size=(rows, 1))
        err[stop:stop + 1] = 0.0
        accel = lim + rng.normal(size=(rows - 2, d)) * 1e-3
        assert same_floats(acceleration_ratio(lim + err, accel, lim),
                           reference_acceleration_ratio(lim + err, accel, lim))

    @fixed_or_fresh(100)
    @given(st.integers(5, 30), st.integers(1, 7), st.integers(0, 2**32 - 1),
           st.sampled_from([0.3, 0.999, 1.0, 1.2]))
    def test_estimate_limit_reads_the_last_rows(self, rows, d, seed, ratio):
        # shrinking, settling, constant-step and growing differences
        rng = np.random.default_rng(seed)
        seq = rng.normal(size=d) + rng.normal(size=d) * ratio ** np.arange(rows)[:, None]
        seq *= 10.0 ** rng.choice([0.0, 200.0])  # differences whose squares overflow
        want = reference_estimate_limit(seq)
        if want is NotConvergingError:
            with pytest.raises(NotConvergingError):
                estimate_limit(seq)
        else:
            est = estimate_limit(seq)
            assert (est.value.tobytes(), est.method) == want

    def test_convergence_report_working_memory_is_flat(self):
        # beyond the error norm of each row it returns, the report holds one
        # row block at a time; it held several arrays the size of the input
        def working(rows):
            rng = np.random.default_rng(rows)
            ratio = rng.uniform(0.1, 0.8, size=50)  # the ratios reach the floor within 200 rows
            raw = rng.uniform(-5, 5, size=50) + rng.uniform(-2, 2, size=50) * ratio ** np.arange(rows)[:, None]
            accel, _ = accelerate_sequence(raw)
            build_convergence_report(raw, accel)  # numpy's first-use allocations happen outside the measurement
            peak, report = traced_peak(lambda: build_convergence_report(raw, accel))
            assert len(report.step_ratios) < 200 and len(report.accel_ratios) < 200
            return peak - report.error_norms.nbytes

        assert working(8000) <= 1.1 * working(1000)
