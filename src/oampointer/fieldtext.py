"""The text of a field file, '%.17g' in every cell, made a block of cells at a time.

Each cell is a fixed-width record of the layout's literals, its x and its y (formatted by % once per
grid) and its value (``g17``), NUL where no character is; a block's records go out with the NULs
dropped. The bytes are those of formatting each cell on its own with '%.17g' % v.
"""
from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

__all__ = ["g17", "write_cells"]

# g17 writes '%.17g' % v for a whole block of floats. With k = floor(log10 |v|), S = |v| 10^(16-k)
# is formed as the exact double-double product (Dekker) of |v| and a (hi, lo) pair made from ints,
# hi + lo within 1e-31 of 10^(16-k), so the 17 digits, round(S), come from IEEE *, +, -, / and floor
# alone, the same at every SIMD level; log10 only guesses k. A cell takes '%.17g' % v itself where
# this cannot decide: floor(S) outside [1e16, 1e17) or round(S) = 1e17 (k guessed wrong, or a carry
# into a new digit), a fraction of S within TIE of a half, and zero, non-finite or |k| > K.
# A cell's text is 48 bytes, NUL where no character is: the sign, "0." and up to three zeros, a
# "0." pad, the 17 digits each followed by a point slot, "e", the exponent's sign and digits.
K = 290  # exponents k the table of powers covers
TIE = 1e-6  # S's computed fraction is off by less than 1e-14
BYTES = 48
BLOCK = 2048  # cells formatted and written at once: bounds the writer's temporaries
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves


def _halves(x):
    """x as upper + lower, 26 significant bits each (Dekker's split, scaled so that it cannot overflow)."""
    c = x * (2.0 ** -60 * _SPLIT)
    upper = (c - (c - x * 2.0 ** -60)) * 2.0 ** 60
    return upper, x - upper


def _error(p, ah, al, bh, bl):
    """a b - p exactly, where p is a b rounded, a = ah + al and b = bh + bl in 26-bit halves (Dekker)."""
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.cache
def tables():
    """The tables of g17, built on first use.

    By 2 (k + K) + (v < 0): 10^(16-k) as hi, hi's upper and lower halves and lo; the text around
    the digits; 17 times the layout class. By 17 class + the last nonzero digit: the mask that keeps
    the digits and the point. By 3-digit chunk: its text "d.d.d." and the place of its last nonzero
    digit (0, 1, 2; -99 for none); chunk 1000 is all NUL. The rows by k + K are doubled at the end.
    """
    # 10^p for p = 0 .. 16 + K: hi and lo correctly rounded from the int
    ints = list(itertools.accumulate(itertools.repeat(10, 16 + K), operator.mul, initial=1))
    his = np.array(ints, dtype=float)
    los = np.array(list(map(operator.sub, ints, map(int, his.tolist()))), dtype=float)
    big, rest = his[1:K - 15], los[1:K - 15]
    # 10^-q for q = 1 .. K - 16: hi = 1 / 10^q rounded, lo = (1 - hi 10^q) / 10^q; hi + lo is within 1e-31 of it
    small = 1 / big
    p = small * big
    tail = ((1 - p) - _error(p, *_halves(small), *_halves(big)) - small * rest) / big
    hi = np.concatenate([his[::-1], small])
    powers = np.stack([hi, *_halves(hi), np.concatenate([los[::-1], tail])], 1)
    d = np.indices((10, 10, 10)).reshape(3, 1000).T  # the digits of each chunk
    chunks = np.zeros((1001, 6), np.uint8)
    chunks[:-1, 0::2] = 48 + d
    chunks[:-1, 1::2] = 46
    ends = np.full(1001, -99.0)
    ends[:-1] = np.where(d > 0, [0, 1, 2], -99).max(1)
    # classes 0..16: fixed, the point after digit k; 17: scientific (k < -4 or k > 16), "e", the exponent's sign
    # and digits (hundreds where |k| >= 100); 18: fixed, below 1 (k = -4 .. -1), after "0." and -1 - k zeros
    layout = np.full(2 * K + 1, 17.0)
    layout[K - 4:K] = 18
    layout[K:K + 17] = np.arange(17)
    text = np.zeros((2 * K + 1, BYTES), np.uint8)
    text[:, 42:44] = [101, 45]
    text[K:, 43] = 43
    text[:, 44:47] = chunks[np.abs(np.arange(-K, K + 1)), 0::2]
    text[K - 99:K + 100, 44] = 0
    text[K - 4:K + 17, 42:47] = 0
    text[K - 4:K, 1:6] = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 5)
    text = np.repeat(text, 2, axis=0)
    text[1::2, 0] = 45
    # in each class, the digits up to the last nonzero one are kept, and in fixed notation those before the point
    cls = np.arange(19)[:, None, None]
    keep = np.where(cls < 17, cls, 0)
    point = np.where(cls == 18, 17, keep)
    last, j = np.arange(17)[:, None], np.arange(17)
    mask = np.zeros((19, 17, BYTES), bool)
    mask[:, :, 8:42:2] = j <= np.maximum(last, keep)
    mask[:, :, 9:41:2] = (j[:16] == point) & (point < last)
    return (np.repeat(powers, 2, axis=0), text.view(np.uint64), np.repeat(17 * layout, 2),
            (mask.view(np.uint8) * np.uint8(255)).reshape(-1, BYTES).view(np.uint64), chunks.view("V6").ravel(), ends)


def percent_rows(values, width=None):
    """'%.17g' % x of each float, one row of uint8 each, NUL-padded to width (the longest text)."""
    texts = ["%.17g" % x for x in values.tolist()]
    width = width or max(map(len, texts))
    return np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width)


def g17(v, out):
    """Write '%.17g' % x of each float64 x of v (1-D) into the rows of out, BYTES each, as uint64
    words, NUL where no character is; the notes above K say how the text is made."""
    powers, text, layout, mask, chunk_text, chunk_ends = tables()
    t = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(t))
    known = np.abs(k) <= K  # no zero, subnormal, nan or inf
    t[~known] = 1.0
    k[~known] = 0.0
    row = ((k + K) * 2 + (v < 0)).astype(np.intp)
    hi, upper, lower, lo = np.take(powers, row, axis=0).T
    # S = s + low: s = t hi rounded, low its rounding error plus t lo
    c = t * _SPLIT
    th = c - (c - t)
    s = t * hi
    low = _error(s, th, t - th, upper, lower) + t * lo
    n = np.floor(low)
    frac = low - n
    ok = known & (np.abs(frac - 0.5) > TIE) & ((s - 1e16) + n >= 0)
    n += frac > 0.5  # round(S) = s + n
    ok &= (s - 1e17) + n < 0
    # round(S) = a 1e9 + b exactly (s is a whole number where S >= 2^53), then its 3-digit chunks
    # "0"d0d1, d2d3d4, ..., d14d15d16 between two NUL chunks
    a = np.floor((s + n) / 1e9)
    b = (s - a * 1e9) + n
    carry = np.floor(b / 1e9)
    a += carry
    b -= carry * 1e9
    q = np.empty((len(v), 8))
    q[:, 0::7] = 1000
    for x, c in (a, q[:, 1:4]), (b, q[:, 4:7]):
        np.floor(x / 1e6, out=c[:, 0])
        np.floor(x / 1e3, out=c[:, 1])
        c[:, 2] = x - c[:, 1] * 1e3
        c[:, 1] -= c[:, 0] * 1e3
    chunks = q.astype(np.intp)
    ends = np.take(chunk_ends, chunks)
    # %g drops trailing zeros: the last nonzero digit is d0 or the last nonzero one of a later chunk
    last = np.maximum(ends[:, 1] - 1, 0)
    for p in range(2, 7):
        np.maximum(last, ends[:, p] + (3 * p - 4), out=last)
    digits = np.take(chunk_text, chunks).view(np.uint8).view(np.uint64)
    digits &= np.take(mask, (np.take(layout, row) + last).astype(np.intp), axis=0)
    np.bitwise_or(digits, np.take(text, row, axis=0), out=out)
    if not ok.all():
        out[~ok] = percent_rows(v[~ok], BYTES).view(np.uint64)


def write_cells(fh, layout, grid, values):
    """Write the (nx, ny) values on grid, x-major, to the binary file fh.

    layout is (head, record, separator, tail): in the record, \\0 stands for x, \\1 for y and \\2
    for the value. No more than a block of records is held.
    """
    head, record, sep, tail = layout
    xs, ys = percent_rows(grid.xs()), percent_rows(grid.ys())
    # one cell's record: the separator and the record, each slot NUL-padded to its width; the
    # value's slot and the record's end on 8-byte words, as g17 writes the value in words
    widths = {"\0": xs.shape[1], "\1": ys.shape[1], "\2": BYTES}
    literal, slot = [], {}
    for ch in sep + record:
        if ch == "\2":
            literal += [0] * (-len(literal) % 8)
        if ch in widths:
            slot[ch] = slice(len(literal), len(literal) + widths[ch])
            literal += [0] * widths[ch]
        else:
            literal.append(ord(ch))
    literal += [0] * (-len(literal) % 8)
    rows = max(1, BLOCK // grid.ny)
    text = bytearray(rows * grid.ny * len(literal))
    cells = np.frombuffer(text, np.uint8).reshape(rows, grid.ny, len(literal))
    cells[:] = literal
    cells[:, :, slot["\1"]] = ys
    words = cells.view(np.uint64).reshape(rows * grid.ny, -1)[:, slot["\2"].start // 8:slot["\2"].stop // 8]
    fh.write(head.encode())
    skip = len(sep)  # the first record has no separator before it
    for i in range(0, grid.nx, rows):
        block = values[i:i + rows]
        cells[:len(block), :, slot["\0"]] = xs[i:i + len(block), None]
        g17(block.ravel(), words[:block.size])
        size = block.size * len(literal)
        fh.write(memoryview((text if size == len(text) else text[:size]).translate(None, b"\0"))[skip:])
        skip = 0
    fh.write(tail.encode())
