"""Shortest round-trip decimal texts of float64 arrays, byte for byte as ``repr``.

``float_texts`` writes many floats at once, in place of one ``repr`` call
per value; ``int_texts`` does the same for integers and bools, and
``byte_texts`` slices those of one-byte integers and bools from a fixed
table.  Python's ``repr`` writes the shortest decimal that reads back
as the same float, the closest one when several have that length, in fixed
notation when its decimal point sits at ``-4 < decpt <= 16`` and as
``d.ddde+XX`` otherwise.

The kernel writes ``|x| = m 2^e`` (``1 <= m < 2``) as ``P = m F`` with
``F = 2^e 10^(16-k)`` and ``10^k <= |x| < 10^(k+1)``: ``P`` has 17 digits
before its point.  ``F`` comes from a table, as a double-double exact to
about 2^-106, and ``P`` is formed in double-double arithmetic (Dekker's
product), so it is known to about 1e-14.  The candidates of 15, 16 and 17
digits are ``P`` rounded to the nearest multiple of 100, 10 and 1; the
first that falls inside x's rounding interval, ``|C - P| < h`` with ``h``
half an ulp of x in units of ``P``, is the text.  No shorter decimal can
read back unless the 15-digit candidate does (the 15-digit grid is coarser
than the interval), and the nearest candidate of a length reads back if
any of that length does.

What the kernel cannot decide exactly goes through ``repr``: 0, NaN, inf,
subnormals and ``|x|`` outside ``[2^EMIN, 2^(EMAX+1))``, about
``[1e-280, 9e279]`` (past it the table's parts leave the normal range),
powers of two (whose rounding interval is not symmetric), and values with a
decision within ``TIE`` of its boundary: a candidate at the edge of the
interval, where reading back goes by round-half-even, or a rounding
halfway between two candidates.

A text is laid out in six 8-byte words, every character at a fixed place
and ``FILL`` bytes where its form has no character, so that no text is
shifted into place: deleting the ``FILL`` bytes leaves the text.  Word 0
holds the sign, the ``0.000`` of a small fixed number and the first digit;
words 1-4 the other 16 digits, each after a place for the decimal point;
word 5 the exponent.  The form (fixed with its point, or exponent) and the
digit count pick word 0's prefix and a mask over words 1-4 from small
tables.

``float_texts`` runs the kernel on at most ``CHUNK`` floats a call, so its
temporaries, about 170 bytes a float of the call beside the 48 of each
text, do not grow with the number of floats.  A call costs about 70 us
whatever its size, and 190 us at 1024 floats.
"""

from __future__ import annotations

import math

import numpy as np

#: the byte that fills the places a text leaves empty; UTF-8 never uses it
FILL = 0xFF
#: bytes per text, in six words of 8
WIDTH = 48
#: the binary exponents the kernel decides; other values go through repr
EMIN, EMAX = -930, 929
#: how near its boundary, in units of P's last digit, a decision sends a value
#: through repr; P's own error is below 1e-14 there
TIE = 1e-9

_ABS = np.uint64((1 << 63) - 1)
_FRACTION = np.uint64((1 << 52) - 1)
_ONE = np.uint64(1023 << 52)  # the bits of 1.0
_HEAD26 = np.uint64((1 << 64) - (1 << 27))  # keeps the first 26 bits of a mantissa
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_EXPONENT_FORMS = 20 * 18  # forms 0..359 are fixed, (decpt + 3) * 18 + digits; then 360 + digits
_POW_LO = -290  # _powers_of_ten's first power


def _powers_of_ten(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """10^j for j = lo..hi (lo < 0 <= hi) as double-double ``head + tail``:
    each part is a correctly rounded quotient of Python ints, so their sum
    is within 2^-106 of 10^j, relative."""
    heads, tails = [], []
    power = 1
    for _ in range(hi + 1):
        head = float(power)
        heads.append(head)
        tails.append(float(power - int(head)))
        power *= 10
    low_heads, low_tails = [], []
    scale = 1
    for _ in range(-lo):
        scale *= 10
        head = 1 / scale
        num, den = head.as_integer_ratio()  # den = 2^s
        low_heads.append(head)
        low_tails.append(math.ldexp((den - num * scale) / scale, 1 - den.bit_length()))
    return np.array(low_heads[::-1] + heads), np.array(low_tails[::-1] + tails)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``v`` into two halves of 26 bits."""
    c = _SPLIT * v
    head = c - (c - v)
    return head, v - head


def _words(chars: np.ndarray) -> np.ndarray:
    """The 8-byte words whose bytes are the rows of ``chars`` (..., 8)."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64)[..., 0]


def _binade_tables():
    """Tables over the biased binary exponent e2 of |x|, and over
    t = 2 e2 + (|x| >= 10^(k0 + 1)), with 10^k0 the largest power of ten
    at most 2^(e2 - 1023): NEXT[e2] (the bits of 10^(k0 + 1)), DECIDED[e2],
    F[:, t] = (FH, FH's two halves, FL) with 2^(e2 - 1023) 10^(16 - k) =
    FH + FL, and DECPT[t] = k + 1.  An undecided binade gets F = 1e16,
    which keeps P finite."""
    heads, tails = _powers_of_ten(_POW_LO, 300)
    e = np.arange(EMIN, EMAX + 1)
    k0 = np.searchsorted(heads, np.ldexp(1.0, e), side="right") - 1 + _POW_LO
    decided = np.zeros(2048, dtype=bool)
    decided[e + 1023] = True
    nxt = np.full(2048, np.iinfo(np.uint64).max, dtype=np.uint64)  # no |x| reaches it
    nxt[e + 1023] = heads[k0 + 1 - _POW_LO].view(np.uint64)
    k = np.stack([k0, k0 + 1], axis=1)  # [binade, |x| >= 10^(k0 + 1)]
    f = np.zeros((4, 2048, 2))
    f[0] = 1e16
    f[0, e + 1023] = np.ldexp(heads[16 - k - _POW_LO], e[:, None])
    f[3, e + 1023] = np.ldexp(tails[16 - k - _POW_LO], e[:, None])
    f[1], f[2] = _split(f[0])
    decpt = np.ones((2048, 2), dtype=np.int64)
    decpt[e + 1023] = k + 1
    return nxt, decided, f.reshape(4, 4096), decpt.ravel()


def _text_tables():
    """The words of the layout: HEAD[(form * 2 + negative) * 10 + d] (sign,
    '0.' and zeros, first digit d), MASK[:, form] (laid over words 1-4 by
    OR: FILL over the digits past the last and over the places without the
    point, '.' at the point), CHUNK[q] (the four digits of q, each after an
    empty place), LAST[c * 10000 + q] (the place in the text of the last
    nonzero digit of q in chunk c, 1 for q = 0) and EXPONENT[decpt + 300]
    ('e', sign and the two or three digits of decpt - 1; empty for fixed
    notation)."""
    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    each = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10_000)  # each[i, q]: digit i of q
    digits = each.T + ascii_digits[0]
    chunk = np.zeros((10_000, 8), dtype=np.uint8)
    chunk[:, 1::2] = digits
    place = np.zeros((10,) * 4, dtype=np.uint8)  # place[q's digits]: the place (1-4) of q's last nonzero digit
    for i in range(4):
        place[(slice(None),) * i + (slice(1, None),)] = i + 1
    last = place.reshape(10_000) + np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    last[:, 0] = 1

    form = np.arange(_EXPONENT_FORMS + 18)
    count = form % 18
    fixed = form < _EXPONENT_FORMS
    decpt = np.where(fixed, form // 18 - 3, 1)
    point = np.where(fixed, np.maximum(decpt, 0), np.where(count > 1, 1, 0))  # after this digit
    shown = np.where(fixed & (decpt >= count), decpt + 1, count)  # zeros up to the point and one after
    zeros = np.where(fixed & (decpt <= 0), 1 - decpt, 0)  # 0 or 1 + the zeros after '0.'
    mask = np.full((len(form), 32), FILL, dtype=np.uint8)
    mask[:, 1::2] = np.where(np.arange(2, 18) <= shown[:, None], 0, FILL)
    mask[np.flatnonzero(point), 2 * point[point > 0] - 2] = ord(".")
    prefix = np.full((5, 5), FILL, dtype=np.uint8)
    for z in range(1, 5):
        prefix[z, :z + 1] = np.frombuffer(b"0." + b"0" * (z - 1), dtype=np.uint8)
    head = np.full((len(form), 2, 10, 8), FILL, dtype=np.uint8)
    head[:, 1, :, 0] = ord("-")
    head[:, :, :, 1:6] = prefix[zeros][:, None, None, :]
    head[:, :, :, 7] = ascii_digits

    e = np.arange(-301, 300)  # decpt - 1
    exponent = np.full((len(e), 8), FILL, dtype=np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = digits[np.abs(e), 1:]
    exponent[np.abs(e) < 100, 2] = FILL
    exponent[(e >= -4) & (e < 16)] = FILL  # fixed notation
    return (_words(head).ravel(), _words(mask.reshape(-1, 4, 8)).T.copy(), _words(chunk),
            last.ravel(), _words(exponent))


_NEXT, _DECIDED, _F, _DECPT = _binade_tables()
_HEAD, _MASK, _CHUNK, _LAST, _EXPONENT = _text_tables()
_WORDS = np.ascontiguousarray(_CHUNK.view(np.uint8).reshape(10_000, 8)[:, 1::2]).view(np.uint32)[:, 0]  # q's digits
_BOOLS = np.frombuffer(b"False" + b"True" + bytes([FILL]), dtype=np.uint8).reshape(2, 5)
_CHUNK_BASE = np.arange(0, 40_000, 10_000)[:, None]
_STEPS = np.array([[100], [10]])
#: the most floats one kernel call takes
CHUNK = 1024


def _scaled(bits: np.ndarray):
    """``(t, w, f, h, decided)`` for the float64 bits ``bits``: the binade
    table's row t, ``P = w + f`` (w an integer, ``0 <= f < 1``), h, and
    whether the kernel decides the value."""
    magnitude = bits & _ABS
    e2 = magnitude >> 52
    t = ((e2 << 1) | (magnitude >= _NEXT.take(e2))).view(np.int64)
    mb = (bits & _FRACTION) | _ONE
    m = mb.view(np.float64)  # in [1, 2), whatever the value is
    m1 = (mb & _HEAD26).view(np.float64)
    m2 = m - m1
    # P = m F = p + err: Dekker's product of m and F's head, plus m times F's tail
    fh, f1, f2, fl = _F.take(t, axis=1)
    p = m * fh
    err = ((m1 * f1 - p) + m1 * f2 + m2 * f1) + m2 * f2 + m * fl
    whole = np.floor(err)
    w = p.astype(np.int64) + whole.astype(np.int64)  # p >= 2^53 is an integer
    h = fh * 2.0 ** -53  # half an ulp of m, times F
    return t, w, err - whole, h, _DECIDED.take(e2) & (m != 1.0)


def _candidate(w: np.ndarray, f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z, tied)``: the first of the 15-, 16- and 17-digit candidates of
    ``P = w + f`` inside ``|C - P| < h``, as a 17-digit integer with
    trailing zeros, and whether a decision on the way was within ``TIE``
    of its boundary: is each candidate inside, does each rounding go up (a
    15-digit rounding halfway leaves both candidates 50 away, outside
    every interval)."""
    # rows: P rounded to the nearest multiple of 100 (15 digits) and of 10 (16 digits)
    base = w // _STEPS * _STEPS
    rem = (w - base) + f  # P mod 100 and P mod 10
    up = rem > _STEPS / 2
    dist = np.minimum(rem, _STEPS - rem)
    near = np.empty((4, len(w)))
    np.subtract(dist, h, out=near[:2])
    np.subtract(rem[1], 5, out=near[2])
    np.subtract(f, 0.5, out=near[3])
    tied = np.abs(near, out=near).min(axis=0, initial=np.inf) <= TIE
    inside = dist < h
    base += up * _STEPS
    z = np.where(inside[0], base[0], np.where(inside[1], base[1], w + (f > 0.5)))
    return z, tied


def _layout(bits: np.ndarray, z: np.ndarray, decpt: np.ndarray, words: np.ndarray) -> None:
    """Write into ``words`` the ``(6, len(z))`` text words of the digits of
    the 17-digit ``z`` with the decimal point at ``decpt``, and the sign of
    ``bits``."""
    n = len(z)
    # digits 2-17 in chunks of four, q[c] holding digits 2 + 4c .. 5 + 4c
    first = z // 10 ** 16
    rest = z - first * 10 ** 16
    q = np.empty((4, n), dtype=np.int64)
    q[1] = rest // 10 ** 8
    q[3] = rest - q[1] * 10 ** 8
    q[0] = q[1] // 10_000
    q[2] = q[3] // 10_000
    q[1::2] -= q[0::2] * 10_000
    digits = _LAST.take(q + _CHUNK_BASE).max(axis=0)

    # decpt + 3 in 0..19 (-4 < decpt <= 16) for fixed notation, 20 for the exponent form
    form = np.minimum((decpt + 3).view(np.uint64), 20).view(np.int64) * 18 + digits
    _HEAD.take((form * 2 + (bits >> 63).view(np.int64)) * 10 + first, out=words[0])
    _CHUNK.take(q, out=words[1:5])
    words[1:5] |= _MASK.take(form, axis=1)
    _EXPONENT.take(decpt + 300, out=words[5])


def _shortest(x: np.ndarray, words: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(words, undecided)`` for float64 ``x``: the ``(6, len(x))`` text
    words, written into ``words`` if given, and the mask of the values whose
    words are to be redone by ``repr`` (they hold some other text)."""
    if words is None:
        words = np.empty((6, len(x)), dtype=np.uint64)
    bits = x.view(np.uint64)
    t, w, f, h, decided = _scaled(bits)
    z, tied = _candidate(w, f, h)
    del w, f, h
    carry = z == 10 ** 17  # rounded up to 10^17: the point moves one place
    z[carry] = 10 ** 16
    _layout(bits, z, _DECPT.take(t) + carry, words)
    return words, ~decided | tied


def float_texts(x: np.ndarray) -> np.ndarray:
    """The texts of float64 ``x`` as a ``uint8`` matrix of ``len(x)`` rows:
    row i with its ``FILL`` bytes deleted is ``repr(float(x[i]))`` in ASCII.
    The places of the layout that no row uses are left out, so the matrix
    has at most ``WIDTH`` columns.  The kernel takes ``x`` in slices of
    ``CHUNK`` floats."""
    words = np.empty((6, len(x)), dtype=np.uint64)
    for lo in range(0, len(x), CHUNK):
        _, undecided = _shortest(x[lo:lo + CHUNK], words[:, lo:lo + CHUNK])
        for i in (lo + np.flatnonzero(undecided)).tolist():
            words[:, i] = np.frombuffer(repr(float(x[i])).encode().ljust(WIDTH, bytes([FILL])), dtype=np.uint64)
    used = np.bitwise_and.reduce(words, axis=1).view(np.uint8).reshape(6, 8) != FILL
    return words.view(np.uint8).reshape(6, len(x), 8).transpose(1, 0, 2)[:, used]


def int_texts(x: np.ndarray) -> np.ndarray:
    """The texts of a 1-D integer or bool array ``x`` as a ``uint8`` matrix
    of ``len(x)`` rows: row i with its ``FILL`` bytes deleted is ``repr``
    of ``x[i]`` as a Python int or bool (``True``, ``False``), in ASCII.

    The digits of ``|x|`` are written four at a time, each group one word
    of the table of four-digit chunks, and ``FILL`` goes over the leading
    zeros and the sign place of a value that is not negative.  The matrix
    is as wide as the longest text.
    """
    if x.dtype == bool:
        return _BOOLS[x.view(np.uint8)]
    negative = x < 0
    magnitude = x.astype(np.uint64)  # a negative value wraps to 2^64 - |x|, and back below
    signed = bool(negative.any())
    if signed:
        np.negative(magnitude, out=magnitude, where=negative)
    size = len(str(int(magnitude.max(initial=0))))  # the most digits
    k = (size + 3) // 4
    words = np.empty((len(x), k), dtype=np.uint32)
    rest = magnitude
    for c in range(k - 1, 0, -1):
        rest, q = np.divmod(rest, np.uint64(10_000))
        words[:, c] = _WORDS[q.astype(np.intp)]
    words[:, 0] = _WORDS[rest.astype(np.intp)]
    digits = words.view(np.uint8)[:, 4 * k - size:]
    lead = np.logical_and.accumulate(digits[:, :-1] == ord("0"), axis=1)  # a zero value keeps its last digit
    digits[:, :-1][lead] = FILL
    if not signed:
        return digits
    texts = np.empty((len(x), size + 1), dtype=np.uint8)
    texts[:, 0] = np.where(negative, ord("-"), FILL)
    texts[:, 1:] = digits
    return texts


#: the texts of the one-byte integers -128..255, as ``int_texts`` writes them
_BYTE_TEXTS = int_texts(np.arange(-128, 256))


def byte_texts(low: int, high: int, boolean: bool) -> np.ndarray:
    """``int_texts`` of the values ``low..high`` of a bool (``boolean``) or
    one-byte integer array, as rows of a fixed table: one slice, where
    ``int_texts`` makes about 15 numpy calls.  The rows are as wide as the
    table's widest text, so their ``FILL`` padding can be wider; deleting
    it leaves the same texts."""
    return _BOOLS[low:high + 1] if boolean else _BYTE_TEXTS[low + 128:high + 129]
