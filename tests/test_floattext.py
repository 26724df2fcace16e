"""The float formatter behind trace.csv against ``repr``, value by value.

``floattext.float_texts`` must write what ``repr`` writes for every float64;
the values its kernel cannot decide go through ``repr``, so the kernel's own
rows are also checked, with the undecided ones set aside.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jungckit import floattext
from conftest import fixed_or_fresh

NAN_PAYLOADS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF4DEADBEEF0000,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)

#: one value or more of each class repr writes for the kernel, and of each layout boundary
EDGES = {
    "zero": [0.0], "nan": NAN_PAYLOADS.tolist(), "inf": [math.inf],
    "subnormal": [5e-324, 1e-310, 2.225073858507201e-308],
    "smallest normal": [2.2250738585072014e-308],
    "outside the decided range": [1e-300, 2.0 ** floattext.EMIN / 3, 2.0 ** (floattext.EMAX + 1), 1e300,
                                  1.7976931348623157e308],
    "power of two": [0.5, 1.0, 2.0, 1024.0, 2.0 ** -1000, 2.0 ** 60],
    # a 16-digit candidate at the edge of the rounding interval; 10^23 halfway between two
    # doubles (1e23 reads back as the lower one by round-half-even); a 17th digit halfway
    "tie": [3.513643030389265e+16, 1e23, 1234567890123456.8],
    "last fixed before exponent": [1e15, 9999999999999998.0, 1234567890123457.0, 123456789012345.67],
    "first exponent": [1e16, 1.0000000000000002e16, 12345678901234568.0],
    "small fixed": [1e-4, 0.00012345678901234567, 0.001, 0.01, 0.1],
    "small exponent": [1e-5, 9.999999999999999e-5, 1.2345678901234567e-5],
    # the doubles nearest 1e24 and 1e-6 are below them: the 15-digit candidate rounds up
    # to the next power of ten, and the point moves one place
    "carry": [1e24, 1e-6, 9.999999999999999e23, 9.999999999999999e-7, 0.9999999999999999, 9.999999999999998e16],
    "three-digit exponent": [1e100, 1.5e-100, 2.5e-280, 9e279],
    "short": [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456.789, 1.5, 100.0, 7e-7],
}


def texts(values) -> list:
    """The texts float_texts writes for ``values``, as str."""
    chars = floattext.float_texts(np.ascontiguousarray(values, dtype=np.float64))
    return [row.tobytes().replace(bytes([floattext.FILL]), b"").decode() for row in chars]


def check(values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    assert texts(values) == [repr(v) for v in values.tolist()]
    words, undecided = floattext._shortest(values)
    chars = words.T.copy().view(np.uint8)
    kernel = [row.tobytes().replace(bytes([floattext.FILL]), b"").decode() for row in chars[~undecided]]
    assert kernel == [repr(v) for v in values[~undecided].tolist()]


@pytest.mark.parametrize("kind", EDGES)
def test_edges(kind):
    check(EDGES[kind])


def test_each_class_repr_writes_is_left_to_repr():
    for kind in ("zero", "nan", "inf", "subnormal", "smallest normal", "outside the decided range",
                 "power of two", "tie"):
        assert floattext._shortest(np.array(EDGES[kind]))[1].all(), kind
    decided = [v for kind in ("last fixed before exponent", "first exponent", "small fixed", "small exponent",
                              "carry", "three-digit exponent") for v in EDGES[kind]]
    assert not floattext._shortest(np.array(decided))[1].any()


def test_float32_values_widened():
    rng = np.random.default_rng(3)
    check(rng.normal(size=2000).astype(np.float32).astype(np.float64))
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to a quiet one, with a warning
        widened = np.array([0x7FC00000, 0xFFC00001, 0x7F800001, 1, 0x00800000], dtype=np.uint32).view(
            np.float32).astype(np.float64)
    check(widened)


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-320, 309)])
    check(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf)]))


@fixed_or_fresh(60)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_bit_patterns(bits):
    check(np.array(bits, dtype=np.uint64).view(np.float64))


@fixed_or_fresh(60)
@given(st.lists(st.floats(width=64), min_size=1, max_size=300))
def test_floats(values):
    check(values)


@fixed_or_fresh(20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(-300, 300))
def test_normals_at_a_scale(seed, exponent):
    rng = np.random.default_rng(seed)
    check(rng.normal(size=500) * 10.0 ** exponent)
    check(np.round(rng.normal(size=500), rng.integers(0, 10)) * 10.0 ** exponent)


def test_powers_of_ten_are_exact_to_2_to_the_minus_106():
    lo, hi = floattext._POW_LO, 300
    heads, tails = floattext._powers_of_ten(lo, hi)
    for j, head, tail in zip(range(lo, hi + 1), heads.tolist(), tails.tolist()):
        exact = Fraction(10) ** j
        assert abs(Fraction(head) + Fraction(tail) - exact) <= exact / 2 ** 106, j


def test_the_binade_table_is_a_power_of_two_times_a_power_of_ten():
    for e2 in range(1023 + floattext.EMIN, 1023 + floattext.EMAX + 1, 7):
        for t in (2 * e2, 2 * e2 + 1):
            k = int(floattext._DECPT[t]) - 1
            exact = Fraction(2) ** (e2 - 1023) * Fraction(10) ** (16 - k)
            head, half, other, tail = floattext._F[:, t].tolist()
            assert abs(Fraction(head) + Fraction(tail) - exact) <= exact / 2 ** 106, t
            assert half + other == head


# ---------------------------------------------------------------------------
# int_texts, the integer and bool formatter


def int_rows(texts):
    return [bytes(row).replace(bytes([floattext.FILL]), b"").decode("ascii") for row in texts]


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_int_edges(dtype):
    info = np.iinfo(dtype)
    edges = {info.min, info.min + 1, info.max, info.max - 1, 0, 1, -1, 9, 10, 9999, 10_000, -10_000, 99_999_999,
             10 ** 8, -(10 ** 12), 10 ** 19, 2**63 - 1}
    x = np.array(sorted(v for v in edges if info.min <= v <= info.max), dtype=dtype)
    assert int_rows(floattext.int_texts(x)) == list(map(repr, x.tolist()))
    assert int_rows(floattext.int_texts(x[::-2])) == list(map(repr, x[::-2].tolist()))  # strided


def test_bools_and_empty_arrays():
    x = np.array([True, False, False, True])
    assert int_rows(floattext.int_texts(x)) == ["True", "False", "False", "True"]
    for dtype in (bool, np.int64, np.uint64):
        assert floattext.int_texts(np.array([], dtype=dtype)).shape[0] == 0


@fixed_or_fresh(100)
@given(st.sampled_from(INT_DTYPES), st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_ints(dtype, seed, count):
    # uniform over the dtype's range, or over a few digits, where most texts are short
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    top = int(rng.choice([info.max, 10 ** int(rng.integers(1, 6))]))
    x = rng.integers(max(info.min, -top), min(info.max, top), size=count, dtype=dtype, endpoint=True)
    texts = floattext.int_texts(x)
    assert int_rows(texts) == list(map(repr, x.tolist()))
    assert texts.shape[1] == max(map(len, map(repr, x.tolist())))
