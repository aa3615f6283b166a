"""CSV rows of an integer and floats, as `%d` and `%.17g` write them, from numpy.

rows_text gives, byte for byte, what `(prefix + "%d" + ",%.17g" * k + "\\n")
% row` gives each row, without a Python call per value.  A value's 17
significant digits D come from a double-double product |v| * 10**(16 - e),
exact to about 2**-100 relative for 1e-280 <= |v| <= 1e280; e starts as
floor(log10 |v|) and is corrected once when the product falls outside
[10**16, 10**17), and a D that rounds up to 10**17 carries into e.  Each
value gets a SLOT-byte slot of ASCII text, NUL where a `%.17g` string has no
character (a trailing zero of the fraction, a point it drops, an exponent it
does not have), and the rows' NULs are deleted at the end.  A value outside
that range, nan, inf, or one whose remainder lies within TIE of a half
(a true tie such as 1 + 2**-17 among them), is formatted by Python's own
`%.17g` instead.  The uint32 and uint64 words below are views of byte
tables, so the text does not depend on the machine's byte order.
"""
from __future__ import annotations

from functools import cache

import numpy as np

LOW, HIGH = 1e-280, 1e280  # the |v| whose digits the kernel finds itself
TIE = 1e-6  # how near a half a remainder may come before Python rounds it
SLOT = 32  # ",", sign, "0.000", 18 bytes of digits and point, "e+308", 2 NUL
DIGITS = 7  # where a slot's digits start
E_MIN, E_MAX = -281, 281  # the exponents of LOW to HIGH, guessed one off or carried
SPLIT = 134217729.0  # 2**27 + 1, which splits a double into 26- and 27-bit halves
NONE, FIRST = 10 ** 4, 10 ** 4 + 1  # four NULs; one digit alone, in a group's last byte
# The layouts of a slot: fixed point with the point after digit 0 to 16 (0 to
# 16), fixed point below 1 (17), and exponent form (18); then the count of
# significant digits, 0 to 17.
POINT_BELOW_1, EXPONENT = 17, 18


def _split(v):
    """v as head + tail, each half of v's bits, so that products of halves are exact."""
    scaled = v * SPLIT
    head = scaled - (scaled - v)
    return head, v - head


@cache
def _tables():
    """The tables rows_text reads, read-only: built on the first call, in
    about 3 ms, and kept, about 125 KiB, for the life of the process."""
    # 10**p as hi + lo for p = 16 - E_MAX .. 16 - E_MIN, from exact integers
    hi, lo = [], []
    for p in range(16 - E_MAX, 16 - E_MIN + 1):
        if p >= 0:
            hi.append(float(10 ** p))
            lo.append(float(10 ** p - int(hi[-1])))
        else:
            den = 10 ** -p
            hi.append(1 / den)
            num, twos = hi[-1].as_integer_ratio()
            lo.append((twos - num * den) / (twos * den))
    hi, lo = np.array(hi), np.array(lo)
    head, tail = _split(hi)
    # a group of 4 digits as one uint32 of ASCII; four NULs; a first digit alone
    k = np.arange(NONE, dtype=np.int16)
    groups = np.zeros((FIRST + 10, 4), np.uint8)
    for i, tens in enumerate((1000, 100, 10, 1)):
        groups[:NONE, i] = k // tens % 10 + ord("0")
    groups[FIRST:, 3] = np.arange(10) + ord("0")
    groups = groups.view(np.uint32).ravel()
    # the trailing zeros of each group, 4 for 0000
    zeros = ((k % 10 == 0).astype(np.int8) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)).astype(np.int8)
    # per exponent: the slot's ",", "0.000" or "e+308", and its layout
    exponents = range(E_MIN, E_MAX + 1)
    affixes = np.frombuffer(b"".join((
        b"," if 0 <= x <= 16 else
        b",\0" + b"0." + b"0" * (-x - 1) if -4 <= x < 0 else
        b",".ljust(25, b"\0") + b"e%+03d" % x
    ).ljust(SLOT, b"\0") for x in exponents), np.uint64).reshape(-1, SLOT // 8)
    layout = np.array([x if 0 <= x <= 16 else POINT_BELOW_1 if -4 <= x < 0 else EXPONENT for x in exponents])
    # per (layout, significant digits): masks of the digit bytes in place, of
    # the digit bytes moved one to the right, and the point.  Digit k is kept
    # below max(significant, first fractional digit); the point, after digit
    # `point`, is written when a fractional digit is kept.
    first = np.r_[np.arange(1, 18), 0, 1][:, None, None]
    point = np.r_[np.arange(17), 17, 0][:, None, None]
    count = np.arange(18)[None, :, None]
    j = np.arange(18)[None, None, :]
    keep = np.maximum(count, first)
    masks = np.zeros((3, 19, 18, SLOT), np.uint8)
    masks[0, ..., DIGITS:DIGITS + 18] = ((j <= point) & (j < keep)) * 255
    masks[1, ..., DIGITS:DIGITS + 18] = ((j > point + 1) & (j - 1 < keep)) * 255
    masks[2, ..., DIGITS:DIGITS + 18] = ((j == point + 1) & (count > first)) * ord(".")
    in_place, moved, points = masks.reshape(3, 19 * 18, SLOT).view(np.uint64)
    tables = hi, head, tail, lo, groups, zeros, affixes, layout * 18, in_place, moved, points
    for table in tables:
        table.flags.writeable = False
    return tables


def _digits(a, e, powers):
    """(product, remainder, D, near a tie) of |v| = `a` at exponent guesses `e`:
    D is the integer nearest a * 10**(16 - e), the product plus remainder."""
    hi, head, tail, lo = (table.take(E_MAX - e) for table in powers)
    product = a * hi
    a_head, a_tail = _split(a)
    rest = ((a_head * head - product) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    whole = np.floor(rest)
    frac = rest - whole
    d = product.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return product, rest, d, np.abs(frac - 0.5) < TIE


def _slots(v: np.ndarray, out: np.ndarray) -> None:
    """`%.17g` of each float64 of `v`, (rows, columns), each after a ",", into
    `out`, the (rows, columns, SLOT // 8) uint64 words of their slots."""
    *powers, groups, zeros, affixes, layouts, in_place, moved, points = _tables()
    v = v.ravel()
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    fast = (a >= LOW) & (a <= HIGH)
    zero = (a == 0) & finite
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    product, rest, d, tie = _digits(a, e, powers)
    redo = np.flatnonzero((product < 1e16) | ((product == 1e16) & (rest < 0)) | (d > 10 ** 17))
    if redo.size:
        e[redo] += np.where(d[redo] > 10 ** 17, 1, -1)
        _, _, d[redo], tie[redo] = _digits(a[redo], e[redo], powers)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[zero] = e[zero] = 0
    slow = np.flatnonzero(~(fast | zero) | tie | (d >= 10 ** 17))
    # the slot's eight uint32 words of digits: NUL, the first digit, four groups of four, NUL, NUL
    picks = np.full((len(v), 8), NONE, np.int64)
    np.floor_divide(d, 10 ** 16, out=picks[:, 1])
    eights = d - picks[:, 1] * 10 ** 16
    picks[:, 1] += FIRST
    for i, part in ((2, eights // 10 ** 8), (4, eights % 10 ** 8)):
        np.floor_divide(part, 10 ** 4, out=picks[:, i])
        np.subtract(part, picks[:, i] * 10 ** 4, out=picks[:, i + 1])
    significant = 17 - zeros.take(picks[:, 5])
    long = np.flatnonzero(picks[:, 5] == 0)  # four trailing zeros or more
    if long.size:
        tz, zero_group = zeros.take(picks[long, 2:6]), picks[long, 2:6] == 0
        significant[long] = 17 - (tz[:, 3] + zero_group[:, 3] * (
            tz[:, 2] + zero_group[:, 2] * (tz[:, 1] + zero_group[:, 1] * tz[:, 0])))
    kept = layouts.take(e - E_MIN) + significant
    text = groups.take(picks).view(np.uint64)
    shifted = np.zeros_like(text)
    shifted.view(np.uint8).ravel()[1:] = text.view(np.uint8).ravel()[:-1]
    text &= in_place.take(kept, axis=0)
    shifted &= moved.take(kept, axis=0)
    text |= shifted
    text |= points.take(kept, axis=0)
    np.bitwise_or(text.reshape(out.shape), affixes.take(e - E_MIN, axis=0).reshape(out.shape), out=out)
    chars = out.view(np.uint8)
    chars[..., 1] = np.signbit(v).reshape(chars.shape[:2]) * np.uint8(ord("-"))
    for k in slow:
        row, column = divmod(int(k), out.shape[1])
        exact = b"%.17g" % v[k]
        chars[row, column, 1:] = 0
        chars[row, column, 1:1 + len(exact)] = np.frombuffer(exact, np.uint8)


def rows_text(prefix: str, index: np.ndarray, values: np.ndarray) -> str:
    """One line per entry of the int64 `index`, non-negative: `prefix`, the
    entry, then its row of the float64 (rows, columns) `values`, each after a
    ","; `prefix` must hold no NUL, and there is at least one row."""
    if index.min() < 0:
        raise ValueError(f"a row index is negative: {index.min()}")
    head = prefix.encode()
    rows, columns = values.shape
    width = len(str(int(index.max())))
    start = -(-(len(head) + width) // 8) * 8  # the slots start on a word
    lines = np.zeros((rows, start + SLOT * columns + 8), np.uint8)
    lines[:, :len(head)] = np.frombuffer(head, np.uint8)
    tens = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    number = (index[:, None] // tens % 10).astype(np.uint8) + np.uint8(ord("0"))
    number[index[:, None] < tens] = 0
    number[:, -1] |= ord("0")
    lines[:, len(head):len(head) + width] = number
    words = lines.view(np.uint64)
    _slots(values, words[:, start // 8:-1].reshape(rows, columns, SLOT // 8))
    lines[:, -8] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode()
