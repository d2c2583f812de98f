"""fieldtext's vectorized '%.17g' against Python's own, cell for cell and byte for byte."""
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oampointer import fieldtext

pytestmark = pytest.mark.simd

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            float("nan"), float("inf"), float("-inf"), 1e16, 1e17, 1e-5, 1e-4, 0.5, -1.0, 123.0, 0.1]


def texts(values):
    """fieldtext.g17's text of each value."""
    values = np.asarray(values, dtype=float)
    out = np.zeros((values.size, fieldtext.BYTES // 8), np.uint64)
    fieldtext.g17(values, out)
    return [bytes(row).translate(None, b"\0").decode() for row in out.view(np.uint8)]


def assert_percent_text(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    got = texts(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_g17_is_percent_17g_for_any_double(floats, bits):
    # Hypothesis' floats reach both signs, subnormals, -0.0 and the largest double; the bit patterns
    # cover the exponent range evenly, and their nan and inf keep the text of %
    assert_percent_text(floats + np.array(bits, np.uint64).view(np.float64).tolist() + SPECIALS)


def near_powers_of_ten():
    """Every double within 30 ulps of 10^k and of 5 10^k, over the whole range, with both signs."""
    bases = [float(f"{m}e{k}") for k in range(-324, 309) for m in (1, 5)]
    bits = np.array([b for b in bases if 0 < b < np.inf]).view(np.int64)[:, None] + np.arange(-30, 31)
    values = bits[bits > 0].view(np.float64)
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def test_g17_is_percent_17g_next_to_powers_of_ten():
    # log10's guess of the exponent is off by one just below 10^k, and a double just below 10^k
    # can round up to it in 17 digits
    values = near_powers_of_ten()
    assert values.size > 150000
    assert_percent_text(values)


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_g17_holds_whatever_exponent_log10_guesses(shift, monkeypatch):
    # a log10 a little low or high guesses the exponent one off next to powers of ten; the digits'
    # bounds catch each wrong guess (1e-14's double, 1.2e-18 below it, then rounds up to 1e17 digits)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert_percent_text(near_powers_of_ten())


def test_g17_is_percent_17g_at_exact_halves():
    # doubles whose 18th significant digit is a final 5: the 17 digits round half to even; S's
    # fraction is exactly a half, so these cells take % themselves
    halves = [m / 2**e for e in range(2, 60) for m in range(1, 2**12, 2) if len(str(m * 5**e).rstrip("0")) == 18]
    halves += [(10**15 + 12345) + m / 4 for m in (1, 3)] + [(10**14 + 7) + m / 8 for m in (1, 3, 5, 7)]
    for v in halves:
        digits = str(Fraction(v).numerator * 10**60 // Fraction(v).denominator).rstrip("0")
        assert len(digits) == 18 and digits.endswith("5"), v
    assert len(halves) > 500
    assert_percent_text(halves + [-v for v in halves])


def test_g17_text_when_every_cell_takes_percent(monkeypatch):
    # a tie margin no fraction can clear sends every cell to the exact fallback
    monkeypatch.setattr(fieldtext, "TIE", 1.0)
    taken = []
    percent_rows = fieldtext.percent_rows
    monkeypatch.setattr(fieldtext, "percent_rows", lambda v, width=None: taken.append(v.size) or percent_rows(v, width))
    values = np.random.default_rng(3).standard_normal(500) * 10.0 ** np.arange(-250, 250)
    assert_percent_text(values)
    assert taken == [values.size]


def test_power_table_is_accurate_and_split_in_halves():
    # hi + lo within 1e-31 of 10^(16 - k) at every k, hi = upper + lower exactly, each of at most 26 bits
    powers = fieldtext.tables()[0]
    assert powers.shape == (2 * (2 * fieldtext.K + 1), 4)
    for i, (hi, upper, lower, lo) in enumerate(powers[::2].tolist()):
        exact = Fraction(10) ** (16 + fieldtext.K - i)
        assert abs((Fraction(hi) + Fraction(lo)) / exact - 1) < Fraction(1, 10**31), i
        assert upper + lower == hi
        for half in (upper, lower):
            mantissa = abs(Fraction(half).numerator)
            assert half == 0 or (mantissa // (mantissa & -mantissa)).bit_length() <= 26, (i, half)
    assert np.array_equal(powers[::2], powers[1::2])


def test_chunk_table_holds_each_three_digits():
    chunk_text, chunk_ends = fieldtext.tables()[4:]
    rows = chunk_text.view(np.uint8).reshape(-1, 6)
    assert [bytes(r[0::2]).decode() for r in rows[:-1]] == ["%03d" % c for c in range(1000)]
    assert not rows[-1].any() and (rows[:-1, 1::2] == ord(".")).all()
    want = [max((i for i, ch in enumerate("%03d" % c) if ch != "0"), default=-99) for c in range(1000)]
    assert chunk_ends.tolist() == want + [-99]


def test_tables_build_in_under_a_millisecond():
    # built on first use, not on import; the best of 20 builds stays well under the 1 ms bound
    best = float("inf")
    for _ in range(20):
        fieldtext.tables.cache_clear()
        start = time.perf_counter()
        fieldtext.tables()
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3
