"""The vectorised ``%.17g`` of ``gfrag._g17`` against Python's own, byte for byte.

Python's ``%.17g`` rounds the exact binary value correctly, half to even,
so every catalogue entry and every drawn value must come out identical.
The catalogue holds the inputs each step of the fast path can get wrong:
powers of ten and their neighbours (the exponent estimate and its
correction), exact decimal ties (half-to-even rounding), values within
1e-15 of a tie (the certification window), the switches between fixed and
scientific notation, and values the fast path leaves to ``%``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfrag import _g17


def reference(table):
    return "".join(",".join(f"{v:.17g}" for v in row) + "\r\n" for row in table.tolist())


def assert_same_as_percent(values, cols=1):
    values = np.asarray(values, dtype=float)
    table = values[: values.size // cols * cols].reshape(-1, cols)
    assert "".join(_g17.lines(table)) == reference(table)


def powers_of_ten():
    out = []
    for k in range(-323, 309):
        v = float(f"1e{k}")
        out += [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf)]
    return out


def exact_ties():
    """m / 2**k whose exact decimal has 18 significant digits, the last a 5."""
    out = [1234567890.00390625, 3 / 2**24]
    for k in range(1, 25):
        first = -(-10**17 // 5**k) | 1
        for m in range(first, first + 8, 2):
            if m < 2**53:
                out.append(m / 2**k)
    for v in out:
        scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert scaled.denominator == 2
    return out


def near_ties():
    """Doubles whose digits after the 17th are a 5 then 14 or more zeros or nines.

    v = m * 2**e with v / 10**K within 1 / (2 * 5**K) of a half-integer, and
    m / 2**(j + k) with m * 5**k / 2**j within 2**-j of one.  Each lies
    inside the window in which the fast path cannot certify its rounding.
    """
    out = []
    for big in range(23, 31):
        for s in (1, -1):
            for e in range(big, big + 80):
                c = (5**big + s) // 2 * pow(2, big - e, 5**big) % 5**big
                out += [float(m) * 2.0**e for m in range(c, 2**53, 5**big)
                        if m >= 2**52 and 10**16 <= Fraction(m * 2**e, 10**big) < 10**17]
    for k in range(23, 27):
        for j in range(40, 60):
            for s in (1, -1):
                c = (2 ** (j - 1) + s) * pow(5**k, -1, 2**j) % 2**j
                out += [m / 2 ** (j + k) for m in range(c, 2**53, 2**j)
                        if m >= 2**52 and 10**16 <= Fraction(m * 5**k, 2**j) < 10**17]
    assert len(out) >= 20
    return out


CATALOGUE = {
    "powers-of-ten": powers_of_ten(),
    "exact-ties": exact_ties(),
    "near-ties": near_ties(),
    "notation-switches": [
        1e-5, 9.9999999999999991e-6, 1e-4, 9.99999999999999999e-5, 9.9999999999999991e-5,
        0.00099999999999999999, 1e16, 1e16 - 2, 9999999999999998.0, 99999999999999999.0,
        1e17, 1.0000000000000002e17, 12345678901234567.0, 2.0**53, 2.0**53 + 2,
        1.0, 10.0, 100.0, 1000.5, 0.5, 0.1, 123.0, 1e15, 0.30000000000000004,
    ],
    "left-to-percent": [
        0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
        1.7976931348623157e308, 1e-280, 9.9999999999999997e-281, 1e280, 1.0000000000000001e281,
    ],
}


@pytest.mark.parametrize("name", sorted(CATALOGUE))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_catalogue_matches_percent(name, sign):
    assert_same_as_percent(sign * np.array(CATALOGUE[name]))


def test_random_bit_patterns_across_blocks_match_percent():
    bits = np.random.default_rng(29).integers(0, 2**64, size=200_003, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_same_as_percent(values[np.isfinite(values)], cols=3)


_bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
)


@given(_bit_patterns, st.integers(1, 4))
def test_drawn_bit_patterns_match_percent(values, cols):
    assert_same_as_percent(values[np.isfinite(values)], cols)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.integers(1, 4))
def test_drawn_floats_match_percent(values, cols):
    assert_same_as_percent(values, cols)
