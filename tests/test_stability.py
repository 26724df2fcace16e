"""Certificates: constants, applicability checks, cross-validation, soundness."""

import dataclasses
import math
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jungckit import (
    JungckConfig,
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
from jungckit import GatePolicy, cli, engine, stability
from jungckit.errors import IndexOutOfRangeError
from jungckit.model import safe_row_norms
from jungckit.stability import CertificateResult, StabilityReport
from jungckit.scan import ScanSpec, sample_config
from conftest import fixed_or_fresh, traced_peak
from test_engine import assert_same_trace, block_len, reference_power_norms, stream_norms


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

    def test_bad_horizon(self):
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.constant(0.5), [1.0, 0.0])
        with pytest.raises(ValueError):
            compute_constants(cfg, horizon=5, tail_start=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t,a,pruned,overflowed", [
        (1e10 * np.eye(2), 0.0, "k1", "k1p"),  # t^31 = 1e310 * I overflows
        (1e10 * np.eye(2), 1.0, "k1p", "k1"),
        (np.full((2, 2), 2.0**31), 0.0, "k1", "k1p"),  # t^32 = 2^1023 * ones is finite, its norm is not
    ], ids=["overflow-a0", "overflow-a1", "inf-norm-a0"])
    def test_zero_weight_prunes_an_overflowed_power(self, t, a, pruned, overflowed):
        # a zero weight on an infinite norm gave 0 * inf = nan before
        cfg = linear_config(np.eye(2), t, Schedule.constant(a), Schedule.constant(0.5), [1.0, 0.0])
        c = compute_constants(cfg, horizon=60)
        assert getattr(c, pruned) == 0.0
        assert getattr(c, overflowed) == c.k2 == math.inf
        res = certify(cfg, horizon=60).properties["i"]
        assert not res.applies and res.margin == -math.inf
        assert res.details["z_factor"] == math.inf

    @pytest.mark.filterwarnings("error")
    def test_a_huge_t_overflows_without_a_warning(self):
        # ||t|| near 1e300: t^3 overflows, and no product on the way to k1 = inf may warn
        t = np.array([[0.25, 1.0e300], [0.1, 0.2]])
        cfg = linear_config(2 * np.eye(2), t, Schedule.constant(1.0), Schedule.one_minus_inv(k=2), [1.0, 0.5])
        c = compute_constants(cfg, horizon=200)
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 200))
        assert c.k1 == math.inf and c.k1p == 0.0

    @pytest.mark.filterwarnings("error")
    def test_a_weight_above_one_on_a_huge_power_gives_inf(self):
        # a = 5 (a schedule clamped to [0, 10]) times ||t|| = 1e308 overflowed with a warning
        t = np.array([[0.25, 1.0e308], [0.1, 0.2]])
        a = Schedule.constant(5.0, clamp=(0.0, 10.0))
        cfg = linear_config(2 * np.eye(2), t, a, Schedule.one_minus_inv(k=2), [1.0, 0.5])
        c = compute_constants(cfg, horizon=200)
        assert c.k1 == c.k2 == c.k1p == math.inf


# ---------------------------------------------------------------------------
# compute_constants as it was, over the full power stream, kept as the
# reference for its early exit; a zero weight gives 0, not 0 * inf = nan


def reference_compute_constants(cfg, horizon, tail_start=0):
    tn = reference_power_norms(cfg, horizon)[tail_start:]
    a = cfg.a.prefix(horizon + 1)
    b = cfg.b.prefix(horizon + 1)

    def sup(weights):
        w = np.abs(weights[tail_start:])
        with np.errstate(invalid="ignore"):
            return float(np.max(np.where(w > 0, w * tn, 0.0)))

    mu_inv = 1.0 / cfg.pair.s_min_modulus
    return StabilityConstants(
        k1=sup(a), k2=sup(b), k1p=sup(1.0 - a), k2p=float(np.max(np.abs(1.0 - b[tail_start:]))),
        m_bound=float(np.max(mu_inv * (np.abs(1.0 - b) * cfg.pair.s_norm + np.abs(b)))),
        horizon=horizon, tail_start=tail_start,
    )


def constant_bits(c):
    return np.array([c.k1, c.k2, c.k1p, c.k2p, c.m_bound]).tobytes()


SCHEDULES = [Schedule.constant(0.0), Schedule.constant(1.0), Schedule.constant(0.4),
             Schedule.one_minus_inv(k=3), Schedule.inv(k=2)]


def near_unit(rng, d, kind):
    """A symmetric or orthogonal d x d map with spectrum in (1 - 1e-6, 1 - 1e-7)."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    if kind == "symmetric":
        return (q * rng.uniform(1.0 - 1e-6, 1.0 - 1e-7, size=d)) @ q.T
    return q * rng.uniform(1.0 - 1e-6, 1.0 - 1e-7)


@st.composite
def constants_cases(draw):
    """A map of dimension 1..50 of one of five kinds, schedules that include
    the zero and full blends, a tail start, and a horizon whose powers end on
    a block boundary or inside a block (or at 40 when that is longer).  A
    near-unit map gets a one-minus-inv b, whose weighted norms peak late."""
    d = draw(st.integers(1, 50))
    k = block_len(d)
    tail_start = draw(st.sampled_from([0, 0, 1, 5, min(k, 100)]))
    count = draw(st.integers(1, 2)) * k + draw(st.sampled_from([0, 1, k // 2, k - 1]))
    count = max(count, tail_start + 11, 40)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    kind = draw(st.sampled_from(["contractive", "non-normal", "orthogonal", "overflowing", "near-unit"]))
    if kind == "contractive":
        raw = rng.normal(size=(d, d))
        t = raw * (draw(st.floats(0.05, 0.99)) / np.linalg.norm(raw, 2))
    elif kind == "non-normal":
        # eigenvalues inside (-0.95, 0.95), and for d >= 2 a norm of 2 to 50
        # from the strictly upper triangle, so the powers grow before they decay
        upper = np.triu(rng.normal(size=(d, d)), 1)
        if d > 1:
            upper *= draw(st.floats(2.0, 50.0)) / np.linalg.norm(upper, 2)
        t = q @ (upper + np.diag(rng.uniform(-0.95, 0.95, d))) @ q.T
    elif kind == "orthogonal":
        t = q  # every power has norm 1 up to rounding
    elif kind == "near-unit":
        t = near_unit(rng, d, draw(st.sampled_from(["symmetric", "orthogonal"])))
    else:
        # (c Q)^n has norm c^n, which first passes the largest float near the target power
        target = draw(st.sampled_from(sorted(n for n in {2, k - 1, k + 1, 2 * k - 1, count // 2} if n >= 2)))
        t = 2.0 ** (1024 / (target - 0.5)) * q
    s = rng.normal(size=(d, d)) + (d + 2) * np.eye(d)
    a = draw(st.sampled_from(SCHEDULES))
    b = Schedule.one_minus_inv(k=draw(st.integers(2, 8))) if kind == "near-unit" else draw(st.sampled_from(SCHEDULES))
    cfg = JungckConfig(pair=make_operator_pair(Operator.from_matrix(s), Operator.from_matrix(t)),
                       a=a, b=b, z0=np.ones(d), steps=3)
    return cfg, count - 1, tail_start


def count_drawn_powers(monkeypatch):
    """Route the stream through a wrapper that records each block's length."""
    drawn = []

    def counted(t):
        for block in engine.matrix_power_blocks(t):
            drawn.append(len(block))
            yield block

    monkeypatch.setattr(stability, "matrix_power_blocks", counted)
    return drawn


def random_d60(norm):
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(60, 60))
    return linear_config(rng.normal(size=(60, 60)) + 30 * np.eye(60), raw * (norm / np.linalg.norm(raw, 2)),
                         Schedule.constant(0.5), Schedule.one_minus_inv(k=2), np.ones(60), steps=3)


class TestEarlyExit:
    @pytest.mark.filterwarnings("error")
    @given(constants_cases())
    @fixed_or_fresh(60)
    def test_constants_match_the_full_stream(self, case):
        cfg, horizon, tail_start = case
        got = compute_constants(cfg, horizon, tail_start)
        want = reference_compute_constants(cfg, horizon, tail_start)
        assert constant_bits(got) == constant_bits(want)
        assert got == want and 1 <= got.powers_read <= horizon + 1

    def test_contractive_map_stops_after_a_few_powers(self, monkeypatch):
        cfg = random_d60(0.9)
        drawn = count_drawn_powers(monkeypatch)
        c = compute_constants(cfg, horizon=300)
        assert sum(drawn) == c.powers_read <= 5
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 300))

    def test_a_map_that_grows_then_dips_matches_the_full_stream(self):
        # ||t^n|| of a rotation in a skewed basis dips to 0.90 at n = 10 and
        # climbs back to 86 at n = 15
        rot = np.array([[np.cos(np.pi / 10), -np.sin(np.pi / 10)], [np.sin(np.pi / 10), np.cos(np.pi / 10)]])
        t = np.zeros((40, 40))
        t[:2, :2] = 0.99 * np.diag([10.0, 0.1]) @ rot @ np.diag([0.1, 10.0])
        cfg = linear_config(2 * np.eye(40), t, Schedule.constant(0.5), Schedule.constant(0.5),
                            np.ones(40), steps=3)
        c = compute_constants(cfg, horizon=100, tail_start=10)
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 100, 10))
        # ||t|| is about 99, so B_n never falls and the stream reads to the horizon
        assert c.powers_read == 101 and c.svds_run == 92

    def test_identity_map_reads_every_power(self, monkeypatch):
        cfg = linear_config(np.eye(60) * 2, np.eye(60), Schedule.constant(0.5), Schedule.constant(0.5),
                            np.ones(60), steps=3)
        drawn = count_drawn_powers(monkeypatch)
        c = compute_constants(cfg, horizon=300)
        # t^0 and t^1 need no SVD, and no seed: ||t||^300 - excess_300 is below every bound
        assert c.powers_read == sum(drawn) == 301 and c.svds_run == 299

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_near_unit_d20_map_runs_few_svds(self, monkeypatch, seed):
        cfg = near_unit_d20(seed)
        seen = record_svd(monkeypatch)
        c = compute_constants(cfg, horizon=1000)
        assert len(seen) == c.svds_run <= 20 and c.powers_read == 1001
        monkeypatch.undo()
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 1000))

    def test_counts_stay_as_recorded(self):
        # powers_read and svds_run as recorded when B_n was also capped by
        # c max_{r<m} ||t^r|| (c = ||t^m|| < 1): on maps with ||t|| < 1 that
        # cap never changed a decision, so the single bound keeps the counts
        seeds = {713703900: [(1, 0), (1, 0), (3, 1), (1, 0), (1, 0)],
                 1637445571: [(1, 0), (3, 0), (3, 1), (1, 0), (1, 0)],
                 1336167140: [(1, 0), (1, 0), (1, 0), (1, 0), (3, 0)]}
        for seed, want in seeds.items():
            spec = ScanSpec(count=5, dim=5, steps=1000, horizon=1000, seed=seed)
            rng = np.random.default_rng(seed)
            got = [compute_constants(sample_config(rng, spec), 1000) for _ in range(spec.count)]
            assert [(c.powers_read, c.svds_run) for c in got] == want
        for seed in range(4):
            c = compute_constants(near_unit_d20(seed), 1000)
            assert (c.powers_read, c.svds_run) == (1001, 2)


def near_unit_d20(seed):
    """Shaped like the generated jungck configs of the CLI benchmark: d = 20,
    a symmetric t with spectrum in (1 - 1e-6, 1 - 1e-7), b = 1 - 1/(n + k);
    at horizon 1000, k2 peaks at t^1000."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(20, 20)))[0]
    s = (q * rng.uniform(1.02, 1.05, size=20)) @ q.T
    return linear_config(s, near_unit(rng, 20, "symmetric"), Schedule.constant(float(rng.uniform(0.3, 0.9))),
                         Schedule.one_minus_inv(k=int(rng.integers(2, 8))), rng.normal(size=20), steps=1000)


# ---------------------------------------------------------------------------
# the bound ||t||^n behind the early exit, against the SVD of every computed power


BOUND_MAPS = {
    "contractive-d5": lambda rng: random_map(5, 0.9, 1),
    "contractive-d30": lambda rng: random_map(30, 0.97, 2),
    # eigenvalues inside (-0.95, 0.95) and ||t|| about 14: the powers grow before they decay
    "non-normal-d8": lambda rng: (lambda q, u: q @ (u + np.diag(rng.uniform(-0.95, 0.95, 8))) @ q.T)(
        np.linalg.qr(rng.normal(size=(8, 8)))[0], np.triu(rng.normal(size=(8, 8)), 1) * 4.0),
    "near-unit-d10": lambda rng: near_unit(rng, 10, "symmetric"),
    "orthogonal-d6": lambda rng: np.linalg.qr(rng.normal(size=(6, 6)))[0],
    # ||t|| = 0.05: the powers pass through the subnormal range and reach 0 within the horizon
    "underflowing-d4": lambda rng: random_map(4, 0.05, 3),
    "underflowing-d40": lambda rng: random_map(40, 0.05, 4),
    # ||t^n|| = ||t||^n: the powers stay as large as the bound allows down into the subnormal range
    "underflowing-orthogonal-d4": lambda rng: 0.05 * np.linalg.qr(rng.normal(size=(4, 4)))[0],
    "underflowing-orthogonal-d5": lambda rng: 0.5 * np.linalg.qr(rng.normal(size=(5, 5)))[0],
    "growing-d3": lambda rng: random_map(3, 1.5, 5),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BOUND_MAPS)
def test_power_bound_holds_for_every_computed_power(name):
    rng = np.random.default_rng(7)
    cfg = edge_config(BOUND_MAPS[name](rng))
    horizon = 1000
    norms = reference_power_norms(cfg, horizon)
    bound, excess = stability._power_bounds(cfg.pair, horizon)
    assert np.all(bound >= norms)
    # a seed at t^n (one row of weight 1, whose bound peaks there) is at most the stream's norm of t^n
    weights = np.ones((1, horizon + 1))
    for n in range(4, horizon + 1, 37):
        peak = np.zeros((1, horizon + 1))
        peak[0, n] = 1.0
        assert stability._seeds(cfg.pair, weights, peak, excess)[0][0] <= norms[n], n


# ---------------------------------------------------------------------------
# the norms of t^0 and t^1, which the certificates take without an SVD


def all_svd_norms(pair, index, block, first):
    """``stability._norms`` without known norms: one stacked SVD over every
    power asked for, t^0 and t^1 included (``compute_constants`` takes
    t^0 = I before its stream, without asking)."""
    return np.linalg.svd(block[index - first], compute_uv=False)[:, 0], len(index)


def record_svd(monkeypatch):
    """Route ``np.linalg.svd`` through a wrapper that keeps a copy of each input,
    as a list of (d, d) matrices."""
    seen = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.extend(np.array(a, copy=True).reshape(-1, *np.shape(a)[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


def random_map(d, norm, seed, negative_zeros=0.0):
    """A random d x d map of the given norm; a share of its entries set to -0.0."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, d))
    t = raw * (norm / np.linalg.norm(raw, 2))
    t[rng.random((d, d)) < negative_zeros] = -0.0
    return t


def random_signs(d, seed):
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=(d, d))


EDGE_MAPS = {
    "zero-d5": np.zeros((5, 5)),
    "zero-d40": np.zeros((40, 40)),
    # t @ I turns -0.0 into +0.0, and the SVD of t and of t @ I differ in the last bit for these two
    "negative-zeros-d5": random_map(5, 0.8, 8, negative_zeros=0.3),
    "negative-zeros-d40": random_map(40, 0.8, 14, negative_zeros=0.3),
    "all-negative-zero-d3": np.full((3, 3), -0.0),
    "d1": np.array([[0.7]]),
    "d1-negative-zero": np.array([[-0.0]]),
    "d1-huge": np.array([[1e308]]),
    # norms near the largest float; t^2 overflows
    "huge-d4": random_signs(4, 1) * (1e308 / 4),
    "huge-d40": random_signs(40, 2) * (1e308 / 40),
}


def d300_contractive_config():
    """Shaped like a dense_d300 op: s with singular values in (0.8, 2.5),
    ||t|| = 0.82, a = 0.6 and b = 1 - 1/(n + 3), so every maximum of the
    certificate constants sits at t^0."""
    rng = np.random.default_rng(2)
    q1, q2 = (np.linalg.qr(rng.normal(size=(300, 300)))[0] for _ in range(2))
    s = q1 @ np.diag(rng.uniform(0.8, 2.5, size=300)) @ q2.T
    return linear_config(s, random_map(300, 0.82, 3), Schedule.constant(0.6), Schedule.one_minus_inv(k=3),
                         np.ones(300), steps=3)


def edge_config(t):
    d = len(t)
    return linear_config(2 * np.eye(d), t, Schedule.constant(0.5), Schedule.one_minus_inv(k=2),
                         np.ones(d), steps=3)


class TestKnownNorms:
    def test_svd_of_the_identity_is_exactly_one(self):
        # the Householder reduction of I reflects nothing, so every singular value is 1.0
        for d in [*range(1, 65), 100, 300]:
            assert np.linalg.svd(np.eye(d)[None], compute_uv=False)[0, 0] == 1.0, d

    @given(st.integers(1, 50), st.integers(0, 2**32 - 1), st.integers(-300, 300), st.floats(0.0, 0.9))
    @fixed_or_fresh(100)
    def test_t_norm_is_the_stacked_svd_of_t(self, d, seed, exponent, zeros):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(d, d)) * 10.0**exponent
        t[rng.random((d, d)) < zeros] = 0.0
        pair = make_operator_pair(Operator.from_matrix(2 * np.eye(d)), Operator.from_matrix(t))
        assert np.float64(pair.t_norm).tobytes() == np.linalg.svd(t[None], compute_uv=False)[0, 0].tobytes()

    @pytest.mark.parametrize("d", [5, 60])
    def test_svd_never_sees_t0_or_t1(self, monkeypatch, d):
        # at d = 60 a block holds one power, at d = 5 blocks of 1, 2, 4, ... 81;
        # an orthogonal t with b = 1 - 1/(n + 2) has every power read and SVD'd
        q = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))[0]
        cfg = edge_config(q)
        seen = record_svd(monkeypatch)
        c = compute_constants(cfg, horizon=300)
        assert c.powers_read == 301 and len(seen) == c.svds_run >= 299
        assert not any(np.array_equal(m, np.eye(d)) or np.array_equal(m, q) for m in seen)
        monkeypatch.undo()
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 300))

    def test_a_d300_certify_svds_at_most_one_power(self, monkeypatch):
        cfg = d300_contractive_config()
        seen = record_svd(monkeypatch)
        report = certify(cfg, horizon=300)
        # every maximum sits at t^0: 0.6 * ||t|| < 0.6 and (1 - 1/4) * ||t|| < 1 - 1/3 bound the later powers
        assert seen == [] and report.constants.svds_run == 0 and report.constants.powers_read == 1
        monkeypatch.undo()
        assert constant_bits(report.constants) == constant_bits(reference_compute_constants(cfg, 300))

    def test_a_certify_that_stops_at_t0_forms_no_power(self):
        # ||t^0|| = 1 is taken without forming I, and the stream never starts:
        # certify holds less than one d x d matrix (it held about two)
        cfg = d300_contractive_config()
        certify(cfg, horizon=300)  # numpy's first-use allocations happen outside the measurement
        peak, report = traced_peak(lambda: certify(cfg, horizon=300))
        assert report.constants.powers_read == 1 and report.constants.svds_run == 0
        assert peak < 300 * 300 * 8

    def test_a_stream_that_stops_after_t1_runs_no_svd(self, monkeypatch):
        # one power per block, ||t|| = 0.8: (2/3) ||t|| > 1/2 raises k2 at t^1, and then
        # (3/4) B_2 < (2/3) ||t||, and so on, so the stream stops after t^1
        cfg = edge_config(random_map(40, 0.8, 4))
        seen = record_svd(monkeypatch)
        c = compute_constants(cfg, horizon=40)
        assert seen == [] and c.svds_run == 0 and c.powers_read == 2
        monkeypatch.undo()
        assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, 40))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", EDGE_MAPS)
    def test_edge_maps_match_the_references(self, monkeypatch, name):
        cfg = edge_config(EDGE_MAPS[name])
        for horizon in (0, 1, 2, 40):
            assert stream_norms(cfg, horizon).tobytes() == reference_power_norms(cfg, horizon).tobytes()
        got = [compute_constants(cfg, horizon) for horizon in (10, 40)]
        # the same stream with every power SVD'd, t^0 and t^1 included
        monkeypatch.setattr(stability, "_norms", all_svd_norms)
        for c, horizon in zip(got, (10, 40)):
            assert constant_bits(c) == constant_bits(reference_compute_constants(cfg, horizon))
            assert c.powers_read == compute_constants(cfg, horizon).powers_read


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

    @pytest.mark.parametrize("tol", [math.nan, -0.01])
    def test_tail_tol_must_be_nonnegative(self, tol):
        # a NaN tolerance fails every comparison: it turned iv and v off without an error
        cfg = linear_config(np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(1.0), Schedule.one_minus_inv(k=2), [1.0, 0.0])
        assert certify(cfg, horizon=100).predicted == "converges-to-zero"
        for check in (lambda: certify(cfg, horizon=100, tail_tol=tol),
                      lambda: check_property_iv_v(cfg, horizon=100, tol=tol),
                      lambda: check_positivity_constraints(cfg, horizon=100, tol=tol)):
            with pytest.raises(ValueError, match="tail_tol must be >= 0"):
                check()

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

    def test_a_replaced_or_reassigned_schedule_is_read_fresh(self):
        # each schedule keeps the values it has evaluated; a new schedule
        # object, whether replaced or assigned, keeps its own
        cfg = linear_config(2 * np.eye(2), 0.5 * np.eye(2),
                            Schedule.constant(0.5), Schedule.one_minus_inv(k=2), [1.0, 0.0], steps=30)
        report = certify(cfg, horizon=30)
        first = run(cfg)
        assert cross_validate(report, first).simulation_agrees
        replaced = dataclasses.replace(cfg, b=dataclasses.replace(cfg.b, k=5))
        trace = run(replaced)
        assert np.array_equal(trace.b_vals, 1.0 - 1.0 / (np.arange(30) + 5))
        assert certify(replaced, horizon=30).constants.k2p == pytest.approx(0.2)
        with pytest.raises(TraceMismatchError):
            cross_validate(report, trace)
        cfg.a = Schedule.constant(0.75)
        assert np.array_equal(run(cfg).a_vals, np.full(30, 0.75))
        with pytest.raises(TraceMismatchError):  # the report's config now holds the new a
            cross_validate(report, first)


def reference_simulation_checks(report, trace):
    """The checks of ``cross_validate`` as they were, over the full-length
    norms of z and y: ``(simulation_agrees, simulation_notes)``."""
    cfg, n, c = report.cfg, trace.n_raw, report.constants
    applying = report.applying()
    zn, yn = safe_row_norms(trace.z), safe_row_norms(trace.y)
    checks, notes = [], []
    bounded = [p for p in applying if p in ("i", "ii", "iii")]
    if bounded and n >= 2:
        if "i" in bounded and c.tail_start == 0:
            start, amp = 0, c.k2p + c.k2 / cfg.pair.s_min_modulus
        elif "ii" in bounded or "iii" in bounded:
            start, amp = 0, c.m_bound
        else:
            start, amp = c.tail_start, c.k2p + c.k2 / cfg.pair.s_min_modulus
        ref = max(start, 1)
        if ref < n:
            ok_z = bool(np.all(zn[ref:] <= zn[ref] * (1.0 + stability.CROSS_VALIDATE_SLACK) + stability.NORM_FLOOR))
            checks.append(ok_z)
            notes.append(f"sup ||z_n||, n>={ref}, vs ||z_{ref}||: {'ok' if ok_z else 'VIOLATED'}")
        ok_y = bool(np.all(yn[start:] <= zn[start:] * (amp + stability.CROSS_VALIDATE_SLACK) + stability.NORM_FLOOR))
        checks.append(ok_y)
        notes.append(f"||y_n|| <= {amp:.6g} * ||z_n|| from n={start}: {'ok' if ok_y else 'VIOLATED'}")
    if ("iv" in applying or "v" in applying) and n >= 1:
        ok_zero = bool(zn[-1] < 1e-6 * zn[0]) if zn[0] > 0 else bool(zn[-1] == 0.0)
        checks.append(ok_zero)
        notes.append(f"final ||z||/||z_0|| = {zn[-1] / zn[0] if zn[0] else 0.0:.3e}: {'ok' if ok_zero else 'VIOLATED'}")
    if trace.diverged:
        checks.append(False)
        notes.append("trace diverged under a certified configuration")
    return (all(checks) if checks else None), notes


@st.composite
def cross_check_cases(draw):
    """A run of dimension 1..6 and 2..120 steps that settles, never settles
    or is 0 from row 1, and a report whose applying certificates, tail start
    and amplification constants (inf and NaN among them) are drawn."""
    d, steps = draw(st.integers(1, 6)), draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["settles", "never", "zero"]))
    if kind == "settles":
        raw = rng.normal(size=(d, d))
        t = raw * (draw(st.floats(0.05, 0.9)) / np.linalg.norm(raw, 2))
    elif kind == "never":
        t = np.linalg.qr(rng.normal(size=(d, d)))[0]
    else:
        t = np.zeros((d, d))
    off = GatePolicy.always_off()
    cfg = JungckConfig(pair=make_operator_pair(Operator.from_matrix(rng.normal(size=(d, d)) + (d + 2) * np.eye(d)),
                                               Operator.from_matrix(t)),
                       a=Schedule.constant(draw(st.floats(0, 1))), b=Schedule.constant(draw(st.floats(0, 1))),
                       z0=rng.normal(size=d) * draw(st.sampled_from([1.0, 1e-300])), steps=steps,
                       gates_z=off, gates_y=off)
    tail_start = draw(st.integers(0, steps + 5))
    value = st.sampled_from([0.0, 0.3, 1.0, 5.0, math.inf, math.nan])
    constants = StabilityConstants(k1=0.0, k2=draw(value), k1p=0.0, k2p=draw(value), m_bound=draw(value),
                                   horizon=tail_start + 10, tail_start=tail_start)
    applying = draw(st.sets(st.sampled_from(["i", "ii", "iii", "iv", "v"]), min_size=1))
    properties = {name: CertificateResult(name=name, applies=name in applying, margin=0.0, details={})
                  for name in ("i", "ii", "iii", "iv", "v")}
    return StabilityReport(cfg=cfg, constants=constants, properties=properties, predicted="bounded",
                           horizon=tail_start + 10, tail_tol=0.01)


class TestCrossValidateReadsLiveRows:
    @given(cross_check_cases())
    @fixed_or_fresh(100)
    def test_matches_the_checks_over_full_arrays(self, report):
        # past a settled trace's stored rows, each comparison is made once
        # for all the +0 rows; an amplification bound of inf or NaN makes it
        # fail there (0 * inf is NaN), as it failed on every +0 row
        trace = run(report.cfg)
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference_simulation_checks(report, trace)
            got = cross_validate(report, trace)
        assert (got.simulation_agrees, got.simulation_notes) == want


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
        assert rep.a_in_range and rep.a_tail_limit == 1.0

    def test_negative_entry_fails(self):
        rep = check_positivity_constraints(
            self.demo_config(t_mat=[[0.1, -0.2], [0.05, 0.1]]), horizon=400)
        assert not rep.t_nonneg and rep.s_inv_nonneg

    def test_zero_b_fails_range(self):
        rep = check_positivity_constraints(
            self.demo_config(b=Schedule.constant(0.0)), horizon=400)
        assert not rep.b_in_range

    def test_min_inverse_entry_reads_the_cached_inverse(self):
        s = np.random.default_rng(1).normal(size=(6, 6)) + 3 * np.eye(6)
        cfg = linear_config(s, np.eye(6) * 0.5, Schedule.constant(1.0), Schedule.one_minus_inv(k=2),
                            np.ones(6), steps=5)
        rep = check_positivity_constraints(cfg, horizon=40)
        assert rep.min_s_inv_entry == float(np.min(np.linalg.inv(s)))

    def test_directly_built_pair_has_its_inverse(self):
        cfg = self.demo_config()
        s, t = cfg.pair.s, cfg.pair.t
        direct = dataclasses.replace(cfg, pair=OperatorPair(s, t, 1e-10))
        assert check_positivity_constraints(direct, horizon=400) == \
            check_positivity_constraints(cfg, horizon=400)



# ---------------------------------------------------------------------------
# the one power stream of a CLI jungck run: the constants' fold reads the
# blocks that run forms, and the stream goes on past the run only for the fold


SHARED_KINDS = ("near-unit", "contractive", "overflow", "settles", "long-horizon", "tail", "short-list")


@st.composite
def shared_stream_cases(draw, kind):
    """``(make, horizon, tail_start)``: ``make()`` builds a fresh copy of a
    CLI-style config (horizon at least steps) of one kind: near-unit
    (every power read), contractive (t^0 alone), overflow (a power past
    the float range, mid-run or after the state overflowed), settles (the zero fill ends the run while
    the fold reads on), long-horizon (horizon > steps), tail (tail_start >
    0) or short-list (an explicit b shorter than the horizon)."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 5))
    steps = draw(st.integers(150, 220) if kind == "settles" else st.integers(12, 120))
    horizon = steps + (draw(st.integers(1, 60)) if kind in ("long-horizon", "short-list") else 0)
    tail_start = draw(st.integers(1, horizon - 10)) if kind == "tail" else 0
    target = draw(st.integers(3, steps - 2))  # the overflow's power
    # a zero state stays finite until a power overflows; a tiny one overflows first
    scale = draw(st.sampled_from([0.0, 1e-300]))
    listed = draw(st.integers(steps, horizon))  # the short list's length

    def make():
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        s = (q * rng.uniform(1.02, 1.05, size=d)) @ q.T
        t = near_unit(rng, d, "symmetric")
        a, b = Schedule.constant(float(rng.uniform(0.3, 0.9))), Schedule.one_minus_inv(k=int(rng.integers(2, 8)))
        z0 = rng.normal(size=d)
        if kind == "contractive":
            t, b = (q * rng.uniform(0.3, 0.9, size=d)) @ q.T, Schedule.constant(float(rng.uniform(0.3, 0.9)))
        elif kind == "overflow":
            t, z0 = 2.0 ** (1024 / (target - 0.5)) * q, z0 * scale
        elif kind == "settles":
            s = 1e3 * s  # the state shrinks by about 1e-3 a step and reaches +0
        elif kind == "short-list":
            b = Schedule.from_values(b.prefix(listed))
        return linear_config(s, t, a, b, z0, steps)

    return make, horizon, tail_start


def last_live_row(trace):
    rows = np.flatnonzero(trace.z.any(axis=1) | trace.sz.any(axis=1))
    return int(rows[-1]) if rows.size else -1


def cli_run_without_the_shared_stream(monkeypatch):
    """Make the CLI run as it did before the stream was shared: its fold
    set-up is refused, so it certifies after the run, with a stream of its
    own."""
    def refused(*args, **kwargs):
        raise ValueError("the shared stream is off")

    monkeypatch.setattr(cli, "stability", types.SimpleNamespace(**{**vars(stability), "ConstantsFold": refused}))


def cli_outputs(cfg, horizon, tail_start, out):
    scn = cli.JungckScenario(cfg=cfg, stability=cli.StabilityOptions(horizon=horizon, tail_start=tail_start))
    code = cli.run_experiment(cli.ExperimentConfig(scenario="jungck", output=None, jungck=scn), out, quiet=True)
    return code, (out / "trace.csv").read_bytes(), (out / "report.txt").read_bytes()


class TestSharedStream:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", SHARED_KINDS)
    @given(data=st.data())
    @fixed_or_fresh(10)
    def test_the_fold_over_the_runs_powers_is_compute_constants(self, kind, data):
        make, horizon, tail_start = data.draw(shared_stream_cases(kind))
        cfg, alone = make(), make()
        if kind == "short-list":
            # the set-up refuses, so the CLI certifies after the run, which skips the certificates
            for build in (stability.ConstantsFold, compute_constants):
                with pytest.raises(IndexOutOfRangeError):
                    build(make(), horizon, tail_start)
            return
        fold = stability.ConstantsFold(cfg, horizon, tail_start)
        trace = run(cfg, fold=fold)
        got, want = fold.constants(), compute_constants(alone, horizon, tail_start)
        assert constant_bits(got) == constant_bits(want)
        assert (got.horizon, got.tail_start, got.powers_read, got.svds_run) == \
            (want.horizon, want.tail_start, want.powers_read, want.svds_run)
        assert_same_trace(trace, run(alone))
        if kind in ("near-unit", "long-horizon"):
            assert got.powers_read == horizon + 1 > cfg.steps - (kind == "near-unit")
        elif kind == "contractive":
            assert got.powers_read == 1
        elif kind == "overflow":
            assert trace.diverged and got.k2 == math.inf
        elif kind == "settles":
            assert last_live_row(trace) + 10 < cfg.steps < got.powers_read

    @pytest.mark.parametrize("kind", SHARED_KINDS)
    @given(data=st.data())
    @fixed_or_fresh(2)
    def test_the_cli_writes_what_it_wrote_with_two_streams(self, kind, data):
        make, horizon, tail_start = data.draw(shared_stream_cases(kind))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            shared = cli_outputs(make(), horizon, tail_start, Path(tmp) / "shared")
            cli_run_without_the_shared_stream(monkeypatch)
            assert cli_outputs(make(), horizon, tail_start, Path(tmp) / "alone") == shared
        skipped = f"INFO certificates skipped: schedules not evaluable through horizon {horizon}\n".encode()
        assert (skipped in shared[2]) == (kind == "short-list")


def count_products(monkeypatch, t: np.ndarray) -> dict:
    """Count the products of ``t`` with a power of t that ``np.matmul``
    forms, and the products that ``np.linalg.matrix_power`` forms by
    repeated squaring (``_seeds``' X = t^n)."""
    counts = {"stream": 0, "seeds": 0}
    matmul, matrix_power = np.matmul, np.linalg.matrix_power

    def counted_matmul(x, y, *args, **kwargs):
        counts["stream"] += x is t and np.ndim(y) == 2
        return matmul(x, y, *args, **kwargs)

    def counted_matrix_power(x, n):
        counts["seeds"] += n.bit_length() - 1 + bin(n).count("1") - 1  # squarings, then the products of bits
        return matrix_power(x, n)

    monkeypatch.setattr(np, "matmul", counted_matmul)
    monkeypatch.setattr(np.linalg, "matrix_power", counted_matrix_power)
    return counts


@pytest.mark.parametrize("settles", [False, True], ids=["cli-configs-d20", "settles-early"])
def test_a_cli_jungck_run_forms_each_power_once(tmp_path, monkeypatch, settles):
    # the CLI benchmark's generated config, or the same with s scaled so that the
    # zero fill ends the run near step 100 while the constants read on to t^1000
    cfg = near_unit_d20(9)
    if settles:
        cfg = linear_config(1e3 * cfg.pair.s.matrix, cfg.pair.t.matrix, cfg.a, cfg.b, cfg.z0, cfg.steps)
    horizon = cfg.steps
    counts = count_products(monkeypatch, cfg.pair.t.matrix)
    trace = []
    monkeypatch.setattr(engine, "run", lambda cfg, **kwargs: trace.append(run(cfg, **kwargs)) or trace[-1])
    scn = cli.JungckScenario(cfg=cfg, stability=cli.StabilityOptions(horizon=horizon))
    assert cli.run_experiment(cli.ExperimentConfig(scenario="jungck", output=None, jungck=scn), tmp_path,
                              quiet=True) == 0
    read = int(re.search(rb"formed (\d+) of", (tmp_path / "report.txt").read_bytes())[1])
    assert read == horizon + 1 and (last_live_row(trace[0]) < 110) == settles
    assert 0 < counts["seeds"] < 20
    assert counts["stream"] <= max(cfg.steps, read) + counts["seeds"]
