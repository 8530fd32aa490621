"""``%.17g`` CSV lines of float arrays, computed with numpy and certified per value.

For 1e-280 <= |v| <= 1e280, X = floor(log10 |v|) and |v| 10**(16 - X) is a
double-double: Dekker's exact split product with a (hi, lo) table of 10**k.
It rounds half to even to the 17-digit D; X moves once when the product is
below 1e16 or D above 1e17, and D = 1e17 carries to 1e16 with X + 1.  The
product is exact when 10**k is one double and otherwise within about 1e-15,
so a rounding is certain when the product is exact or its fraction is more
than 2**-30 from 1/2.  ``%`` formats the rest: zeros, |v| outside the range
and near-ties.
"""

import numpy as np

_LOW, _HIGH = 1e-280, 1e280  # the split products neither overflow nor underflow
_K0 = -270  # the 10**k table covers k = 16 - X from here
_SPLIT = 134217729.0  # 2**27 + 1
_E16, _E17 = 10**16, 10**17
_BLOCK = 2048  # values formatted at once, which bounds the temporaries
_QUADS = np.arange(4)[:, None]  # the four-digit groups of digits 0-15
_tables = None


def _word(text, at=0):
    return int.from_bytes(text.encode("ascii"), "little") << 8 * at


def _power(k):
    """10**k as a double and the double nearest the rest."""
    n, d = (10**k, 1) if k >= 0 else (1, 10**-k)
    h = n / d  # int / int rounds correctly
    hn, hd = h.as_integer_ratio()
    return h, (n * hd - hn * d) / (d * hd)


def _build_tables():
    hi, lo = np.array([_power(k) for k in range(_K0, 300)]).T
    # four digits on the even bytes of a word, and how many digits of a
    # 17-digit number reach the last nonzero one when they are its k-th four
    quads = [f"{q:04d}" for q in range(10000)]
    spread = np.zeros((10000, 8), np.uint8)
    spread[:, ::2] = np.frombuffer("".join(quads).encode("ascii"), np.uint8).reshape(-1, 4)
    last = [len(q.rstrip("0")) for q in quads]
    ends = np.array([[n and n + 4 * k for n in last] for k in range(4)], np.int8)
    masks = [0] * 13 + [(1 << 16 * c) - 1 for c in range(1, 4)] + [2**64 - 1] * 14
    # 'e+XX' after digit 16 in word five; the sign and '0.000' lead in word zero
    exps = [0] + [_word(f"e{x:+03d}", 1) for x in range(-300, 301)]
    leads = [_word(s + "0." + "0" * z if z >= 0 else s) for s in ("", "-") for z in range(-1, 4)]
    words = (masks, exps, leads, [46 << 16 * j + 8 for j in range(4)], [_word(",", 6), _word("\r\n", 6)])
    return (hi, lo, spread.view("<u8").ravel(), ends.ravel(), *(np.array(w, "<u8") for w in words))


def lines(table):
    """Yield the CRLF-ended ``%.17g`` CSV lines of a finite 2-D float array."""
    global _tables
    if _tables is None:
        _tables = _build_tables()
    step = max(1, _BLOCK // table.shape[1])
    for start in range(0, table.shape[0], step):
        yield _block(table[start:start + step])


def _block(table):
    flat = table.ravel()
    d, x, certain = _digits(flat)
    m = _words(flat, d, x, table.shape[1])
    slow = np.flatnonzero(~certain)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(46, b"\0") for v in flat[slow].tolist())
        m.view(np.uint8).reshape(-1, 48)[slow, :46] = np.frombuffer(text, np.uint8).reshape(-1, 46)
    return m.tobytes().translate(None, b"\0").decode("ascii")


def _digits(flat):
    """D, X and whether the rounding is certain, for each |v| ~ D 10**(X - 16)."""
    a = np.abs(flat)
    fast = (a >= _LOW) & (a <= _HIGH)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    dig, frac, exact = _scaled(a, x)
    fix = np.flatnonzero((dig < _E16) | (_rounded(dig, frac) > _E17))
    if fix.size:
        x[fix] += np.where(dig[fix] < _E16, -1, 1)
        dig[fix], frac[fix], exact[fix] = _scaled(a[fix], x[fix])
    d = _rounded(dig, frac)
    carry = d == _E17
    d[carry] = _E16
    x += carry
    return d, x, fast & (exact | (np.abs(frac - 0.5) > 2.0**-30)) & (d >= _E16) & (d < _E17)


def _scaled(a, x):
    """Integer part, fraction and exactness of a * 10**(16 - x)."""
    hi, lo = _tables[0][16 - x - _K0], _tables[1][16 - x - _K0]
    p = a * hi
    ca, cb = _SPLIT * a, _SPLIT * hi
    ah, bh = ca - (ca - a), cb - (cb - hi)
    al, bl = a - ah, hi - bh
    low = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo
    whole = np.floor(low)
    return p.astype(np.int64) + whole.astype(np.int64), low - whole, lo == 0.0


def _rounded(dig, frac):
    return dig + ((frac > 0.5) | ((frac == 0.5) & (dig % 2 == 1)))


def _words(flat, d, x, cols):
    """Six little-endian words a value: sign and '0.000' lead; digits 0-15 on
    even bytes, a point after one of them; digit 16, 'e+XXX' and separator."""
    spread, ends, masks, exps, leads, points, seps = _tables[2:]
    fixed = (x >= -4) & (x < 17)
    high, low = np.divmod(d, 10**9)
    low, last = np.divmod(low, 10)
    quads = np.empty((4, flat.size), np.int64)
    np.divmod(high, 10**4, out=(quads[0], quads[1]))
    np.divmod(low, 10**4, out=(quads[2], quads[3]))
    del high, low
    # digits to print: up to the last nonzero one, and the integer part
    count = np.maximum(ends[quads + 10000 * _QUADS].max(axis=0), (x + 1) * fixed)
    count[last > 0] = 17
    point = np.where(x < 0, 16, x) * fixed  # digits before the point, less one
    words = spread[quads]
    words &= masks[count + (12 - 4 * _QUADS)]
    words |= points[point % 4] * ((count > point + 1) & (point // 4 == _QUADS))
    m = np.zeros((flat.size, 6), "<u8")
    m[:, 1:5] = words.T
    m[:, 0] = leads[np.signbit(flat) * 5 + np.where(fixed & (x < 0), -x, 0)]
    tail = exps[np.where(fixed, 0, x + 301)] + (last + 48).astype(np.uint64) * (count == 17)
    m[:, 5] = (tail.reshape(-1, cols) + seps[np.arange(1, cols + 1) // cols]).ravel()
    return m
