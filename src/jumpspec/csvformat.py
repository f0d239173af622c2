"""CSV text of float tables, every value exactly as '%.17g' writes it.

format_rows turns a 2-D float block into its CSV lines, ',' between the
values of a row and '\\n' after each, byte for byte what '%.17g' % x gives
for each value x (Python's correctly rounded conversion, Gay 1990, which
agrees with C's printf), but for the whole block at once.

Each |x| in [1e-280, 1e16) gets its decimal exponent k, 10^k <= |x| <
10^(k+1), from floor(log10|x|) corrected against the smallest double at or
above each 10^k, and its 17-digit significand D = round(|x| 10^(16 - k))
from a double-double product hi + lo of |x| and 10^(16 - k) (Dekker,
Numer. Math. 18, 1971; numpy has no fused multiply-add, so both factors are
split in halves and the two-product is exact). The product lies in
[1e16, 1e17), below 2^57, where hi is an even integer and D = hi + rint(lo).
The table holds 10^s as hi_s + lo_s to within 2^-106 10^s, so hi + lo is off
from |x| 10^(16 - k) by at most 2^-49 from the table, 2^-50 from rounding
lo_s |x| (below 16) and 2^-49 from the sum that forms lo (below 32): under
2^-47 in all. So D is exact unless the fraction lo - rint(lo) lies within
that of one half; the kernel leaves every value whose fraction lies within
TIE_MARGIN = 1e-6 of one half to '%.17g' % x itself, as it does NaN,
infinities, values outside the range and a D that rounds up to 10^17.
Zeros are '0' and '-0'.

The digits are laid out by the '%g' rules: fixed notation for decimal
exponents -4 to 16, else d.ddde-XX (a value of 1e16 or more takes the
fallback), trailing zeros and a bare '.' stripped. Each value first gets a
48-byte row holding every character its text could need:

    bytes 0-5 '-0.000', 6-39 'd0.d1.d2. ... d16.', 40-44 'e-EEE', 45 the separator

then a row of the keep table, picked by its notation, significant digit
count and sign, masks it in place: 0xFF at the bytes of its text, 0x00
elsewhere. Text bytes are never NUL, so dropping every NUL byte of the
block compacts it. The tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows", "significands"]

LO, HI = 1e-280, 1e16  # the magnitudes the kernel formats itself, besides zero
TIE_MARGIN = 1e-6  # D's fractions this close to one half take the fallback
_K0 = -282  # the tables' first exponent, below floor(log10|x|) of any |x| in [LO, HI)
_W = 48  # bytes of a value's row: six 8-byte words
_FORMS = 23  # notations: 0-19 fixed for exponents -4..15, 20 and 21 two and three exponent digits, 22 zero


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a (below 1e300) into two halves of 26 significant bits."""
    c = 134217729.0 * a
    h = c - (c - a)
    return h, a - h


def _keep() -> np.ndarray:
    """The keep table: per (notation form, significant digit count nd, sign)
    row, 0xFF at the row bytes of that value's text and 0x00 elsewhere.
    Digit j sits at 6 + 2j, the dot after it at 7 + 2j."""
    form, nd, sign, b = np.ix_(np.arange(_FORMS), np.arange(1, 18), np.arange(2), np.arange(_W))
    j = (b - 6) // 2  # the digit at b, or the one whose dot b is
    digits = (b >= 6) & (b < 40) & (b % 2 == 0) & (j < nd)
    whole = form - 3  # fixed notation's integer digits, for exponents 0..15
    body = np.select(
        [form == 22, form >= 20, form >= 4],
        [b == 1,  # '0'
         digits | (b == 7) & (nd > 1) | (b >= 40) & (b < 45) & ((b < 42) | (b >= 63 - form)),  # d.ddd e-EE(E)
         digits | (b >= 6) & (b < 5 + 2 * whole) & (b % 2 == 0) | (b == 5 + 2 * whole) & (nd > whole)],
        (b >= 1) & (b < 6 - form) | digits)  # '0.', -X - 1 zeros of '000', then the digits
    return (body | (b == 0) & (sign == 1) | (b == 45)).reshape(-1, _W).astype(np.uint8) * np.uint8(0xFF)


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """10^(16 - k) as hi + lo and hi's halves, and the smallest double at or
    above 10^k, indexed by k - _K0; the row words of the leading digit, of
    every four digits and of every exponent; the keep table; and the
    trailing zeros of every four digits."""
    tens = [10 ** (16 - k) for k in range(_K0, 17)]
    hi = np.array([float(p) for p in tens])
    lo = np.array([float(p - int(h)) for p, h in zip(tens, hi)])
    floor = []
    for k in range(_K0, 18):
        f = float(10**k) if k >= 0 else 1 / 10**-k  # correctly rounded
        num, den = f.as_integer_ratio()
        floor.append(f if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else np.nextafter(f, np.inf))
    n = np.arange(10000)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + 48
    dotted = np.full((10000, 8), ord("."), dtype=np.uint8)
    dotted[:, ::2] = quads
    lead = np.frombuffer(b"-0.000" * 10, dtype=np.uint8).reshape(10, 6)
    lead = np.column_stack([lead, quads[:10, 3], dotted[:10, 1]])
    exponent = np.zeros((1000, 8), dtype=np.uint8)
    exponent[:, :2] = np.frombuffer(b"e-", dtype=np.uint8)
    exponent[:, 2:5] = quads[:1000, 1:]
    zeros = np.select([n % 1000 == 0, n % 100 == 0, n % 10 == 0], [3, 2, 1], 0) + (n == 0)
    tables = {
        "hi": hi, "halves": np.stack(_split(hi)), "lo": lo, "floor": np.array(floor),
        "lead": lead.view(np.uint64)[:, 0], "dotted": dotted.view(np.uint64)[:, 0],
        "exponent": exponent.view(np.uint64)[:, 0], "keep": _keep().view(np.uint64),
        "zeros": zeros,
    }
    for table in tables.values():  # every caller shares them
        table.flags.writeable = False
    return tables


def significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal exponent k and 17-digit significand D (int64) of each
    |x|, and the mask of the values the kernel formats itself: zeros (their
    k and D mean nothing) and the certified values of [LO, HI)."""
    t = _tables()
    a = np.abs(x)
    inside = (a >= LO) & (a < HI)
    y = np.where(inside, a, 1.0)  # a stand-in that every step below accepts
    k = np.floor(np.log10(y)).astype(np.intp) - _K0
    k += (y >= t["floor"][k + 1]).view(np.int8)
    k -= (y < t["floor"][k]).view(np.int8)
    yh, yl = _split(y)
    th, tl = t["halves"][:, k]
    hi = y * t["hi"][k]
    lo = (((yh * th - hi) + yh * tl + yl * th) + yl * tl) + y * t["lo"][k]
    r = np.rint(lo)
    D = hi.astype(np.int64) + r.astype(np.int64)
    ok = (inside & (np.abs(np.abs(lo - r) - 0.5) >= TIE_MARGIN) & (D < 10**17)) | (a == 0.0)
    return k + _K0, D, ok


def format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float block: each value as '%.17g' % value,
    ',' between the values of a row, '\\n' after each row."""
    rows, cols = block.shape
    x = block.ravel()
    k, D, ok = significands(x)
    t = _tables()
    D = np.minimum(D, 10**17 - 1)  # a fallback's D may reach 10^17
    lead = D // 10**16
    rest = D - lead * 10**16
    quads = [rest // 10**12, rest // 10**8 % 10000, rest // 10**4 % 10000, rest % 10000]
    words = np.empty((rows, cols, _W // 8), dtype=np.uint64)
    words[..., 0] = t["lead"][lead].reshape(rows, cols)
    for i, q in enumerate(quads):
        words[..., 1 + i] = t["dotted"][q].reshape(rows, cols)
    sep = np.frombuffer(b"," * (cols - 1) + b"\n", dtype=np.uint8).astype(np.uint64) << np.uint64(40)
    words[..., 5] = t["exponent"][np.clip(-k, 0, 999)].reshape(rows, cols) | sep
    zeros, tail = t["zeros"][quads[3]], quads[3] == 0  # D's trailing zeros, four digits at a time
    for q in quads[2::-1]:
        zeros += tail * t["zeros"][q]
        tail &= q == 0
    form = np.where(x == 0.0, 22, np.where(k >= -4, k + 4, np.where(k > -100, 20, 21)))
    key = (form * 17 + 16 - zeros) * 2 + np.signbit(x)  # row (form, 17 - zeros digits, sign)
    words &= t["keep"][key].reshape(words.shape)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = words.view(np.uint8).reshape(-1, _W)
        fallback = [b"%.17g" % v for v in x[slow].tolist()]
        size = np.array([len(s) for s in fallback])
        ends = text[slow, 45]
        text[slow] = 0
        text[slow, :24] = np.frombuffer(b"".join(s.ljust(24, b"\0") for s in fallback), np.uint8).reshape(-1, 24)
        text[slow, size] = ends
    return words.tobytes().translate(None, b"\0")
