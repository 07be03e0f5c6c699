"""CSV columns as byte matrices: numpy numeric or bytes columns, masked cells empty.

`sweep_report` imports this module only for a block of rows whose every
column is a numpy numeric or bytes (`S`) array, masked or not. Each
column becomes a `(width, n)` uint8 matrix: column r of it, with its
zero bytes dropped, is cell r as `sweep_report._format_number` writes it,
a bytes cell as it is, and a masked cell as nothing. `rows_bytes` stacks
the matrices with ',' and '\\n' rows, copies them out row-major as bytes
and drops every zero byte with one `bytes.translate`. Nothing here keeps
state between calls, so `sweep_report` formats two blocks at once on two
threads.

Integers, bools and integral floats under 1e16 are written one digit
position for all cells at a time. Other floats with 1e-4 <= |x| < 2**53
take the shortest-digits path of `_shortest`, which proves each result
it returns; every cell it cannot prove, and every other float (exponent
form, subnormals, `inf`, `nan`), is formatted by `_format_number` itself,
so the bytes are those of the per-cell writer.
"""

from __future__ import annotations

import numpy as np

from .sweep_report import _format_number

_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_MINUS, _ZERO, _POINT = (np.uint8(ord(c)) for c in "-0.")


def _split(v):
    c = v * _VELTKAMP
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**s) for s in range(23)])  # each exact in a double


def _fast_range(a):
    """Cells the shortest-digits path takes: positional floats that are not
    powers of two (whose rounding interval is asymmetric)."""
    return (a >= 1e-4) & (a < 2.0**53) & ((a.view(np.uint64) & _MANTISSA) != 0)


def _shortest(a):
    """(m, k, proved) for doubles `a` in `_fast_range`, none integral.

    Where `proved`, repr(a) has the significant digits of the 17-digit
    integer m, less its trailing zeros, and a's decimal exponent is k.

    With k = floor(log10 a), y = a 10^(16-k) lies in [1e16, 1e17), and the
    reals that read back as a are those within h = ulp(a)/2 10^(16-k) of
    y, h in (0.55, 11.1). Dekker's two-product gives y = p + err exactly,
    so y = Y + f (Y integer, f in [0, 1)) and y +- h are exact: each is a
    multiple of 2**-47 below 2**57. The integers strictly inside are
    B - W .. B. The shortest digits are the multiple of 10^j nearest y for
    the largest j with one inside: j = 0 if B mod 10 > W, j = 1 if
    B mod 100 > W, else the one multiple of 100 inside, B - B mod 100.
    Every decision is an exact comparison, so no margin is needed. Not
    proved: k off by one (log10 rounded across a power of ten), an
    interval end on an integer (whether it reads back depends on
    round-half-even), and y half way between two candidates.
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    scale = _POW10[16 - k]
    p = a * scale
    (a_hi, a_lo), (s_hi, s_lo) = _split(a), _split(scale)
    err = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    whole = np.floor(err)
    y = p.astype(np.int64) + whole.astype(np.int64)
    f = err - whole
    h = (a.view(np.uint64) & _EXPONENT).view(np.float64) * (scale * 2.0**-53)
    h_int = np.floor(h)
    up, down = f + (h - h_int), f - (h - h_int)
    carry, h_int = up >= 1.0, h_int.astype(np.int64)
    b = y + h_int + carry
    w = 2 * h_int + carry - (down > 0.0)
    # x - x // n * n: int64 % by a scalar costs ~4x //, and b, y are positive
    r1, r2, y1 = b - b // 10 * 10, b - b // 100 * 100, y - y // 10 * 10
    j0, j1 = r1 > w, r2 > w
    m = np.where(j0, y + (f > 0.5), np.where(j1, y - y1 + 10 * (y1 + f > 5.0), b - r2))
    tie = np.where(j0, f == 0.5, j1 & (y1 == 5) & (f == 0.0))
    proved = ~tie & (down != 0.0) & (up != 1.0) & (y >= 10**16) & (y < 10**17)
    return m, k, proved


def _positional(m, k, negative):
    """Cells of sign, digits of m less trailing zeros, and a '.' after
    digit k (or '0.' and -k-1 zeros before the digits where k < 0)."""
    k_lo, k_hi = int(k.min()), int(k.max())
    signs = int(negative.any())
    lead = max(0, 1 - k_lo)  # '0', '.' and the zeros after it
    points = max(0, k_hi + 1)  # one '.' slot after each digit that can precede it
    out = np.empty((signs + lead + 17 + points, len(m)), np.uint8)
    if signs:
        out[0] = negative * _MINUS
    if lead:
        out[signs] = (k < 0) * _ZERO
        out[signs + 1] = (k < 0) * _POINT
        for c in range(1, lead - 1):
            out[signs + 1 + c] = (k <= -1 - c) * _ZERO
    base = signs + lead
    for i in range(points):
        out[base + 2 * i + 1] = (k == i) * _POINT
    high = m // 10**9
    i, seen = 16, np.zeros(len(m), bool)
    for q, count in ((m - high * 10**9, 9), (high, 8)):  # 32-bit digit steps are faster
        q = q.astype(np.uint32)
        for _ in range(count):
            q_next = q // 10
            d = q - q_next * 10
            seen |= d != 0
            out[base + i + min(i, points)] = (d + _ZERO) * seen
            q, i = q_next, i - 1
    return out


def _int_matrix(v):
    """int64 cells as decimal integers."""
    negative = v < 0
    u = np.where(negative, np.negative(v.view(np.uint64)), v.view(np.uint64))
    top = int(u.max()) if len(u) else 0
    digits = len(str(top))
    if top < 2**32:
        u = u.astype(np.uint32)  # 32-bit digit steps are faster
    signs = int(negative.any())
    out = np.empty((signs + digits, len(v)), np.uint8)
    if signs:
        out[0] = negative * _MINUS
    for row in range(signs + digits - 1, signs - 1, -1):
        q_next = u // 10
        d = u - q_next * 10 + _ZERO
        out[row] = d if row == signs + digits - 1 else d * (u != 0)
        u = q_next
    return out


def column_matrix(values):
    """The (width, n) byte matrix of a numeric or bytes numpy column, or of
    a masked one, whose masked cells are empty."""
    if hasattr(values, "mask"):  # masked, tested without importing numpy.ma (~14 ms)
        return column_matrix(values.data) * ~np.ma.getmaskarray(values)
    if values.dtype.kind == "S":  # bytes as they are
        raw = np.ascontiguousarray(values)
        return raw.view(np.uint8).reshape(len(raw), raw.itemsize).T
    if values.dtype.kind != "f":
        return _int_matrix(values.astype(np.int64, copy=False))
    x = values.astype(np.float64, copy=False)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # trunc of a signalling nan
        integral = (x == np.trunc(x)) & (a < 1e16)
    fast = np.flatnonzero(_fast_range(a) & ~integral)
    m, k, proved = _shortest(a[fast])
    fast = fast[proved]
    rest = ~integral
    rest[fast] = False
    integral, rest = np.flatnonzero(integral), np.flatnonzero(rest)
    parts = []
    if len(fast):
        parts.append((fast, _positional(m[proved], k[proved], x[fast] < 0)))
    if len(integral):
        parts.append((integral, _int_matrix(x[integral].astype(np.int64))))
    if len(rest):
        texts = np.array([_format_number(v).encode() for v in x[rest].tolist()])
        parts.append((rest, column_matrix(texts)))
    if len(parts) == 1:
        return parts[0][1]
    out = np.zeros((max((mat.shape[0] for _, mat in parts), default=0), len(x)), np.uint8)
    for rows, mat in parts:
        out[: mat.shape[0], rows] = mat
    return out


def rows_bytes(columns) -> bytes:
    """CSV lines of equal-length `column_matrix` columns, each line ended by '\\n'."""
    n = len(columns[0])
    comma, newline = (np.full((1, n), ord(c), np.uint8) for c in ",\n")
    pieces = []
    for values in columns:
        pieces += [column_matrix(values), comma]
    pieces[-1] = newline
    rows = np.concatenate(pieces)
    del pieces  # the matrices go before the two copies below are made
    return rows.tobytes(order="F").translate(None, b"\0")
