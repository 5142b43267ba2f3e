"""The CSV artifacts' text: ``%.17g`` values, formatted by a numpy kernel.

:func:`write_csv` writes the bytes of Python's ``"%.17g" % v`` for every
value, a block at a time.  The kernel takes each value's decimal exponent
from ``log10``, its 17-digit significand from a double-double product with
an exact table of powers of ten (Dekker, *A floating-point technique for
extending the available precision*, Numer. Math. 18, 1971), and its digits
from a table of 4-digit ASCII groups.  Fixed-precision output can skip the
big-number arithmetic of correctly rounded conversion (Gay, *Correctly
rounded binary-decimal and decimal-binary conversions*, 1990) for almost
every value (Adams, *Ryu revisited: printf floating point conversion*,
OOPSLA 2019); Python's ``%`` formats the values it leaves undecided.
"""

from functools import cache

import numpy as np

__all__ = ["write_csv"]

# values formatted per block; bounds the writer's memory
_BLOCK_VALUES = 2048
# |x| the kernel formats; every other value, 0, inf and nan included, goes to %
_RANGE = (1e-280, 1e290)
# the decimal exponents the kernel can meet on that range: the log10
# estimate, its correction by one and the carry of a rounding
_E_MIN, _E_MAX = -283, 292
# a fraction this close to 1/2 goes to %: 8x the kernel's error bound
_TIE_BAND = 2.0**-44
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1


def _pow10_pair(k):
    """``(hi, lo)``: ``hi`` the double nearest ``10^k`` and ``lo`` the
    double nearest ``10^k - hi``, in integer arithmetic (Python's int to
    float conversion and int division round correctly)."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    den = 10**-k
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


def _words(texts):
    """Byte strings of at most 8 bytes as NUL-padded ``uint64`` words."""
    return np.array(texts, dtype="S8").view(np.uint64)


@cache
def _tables():
    """The read-only tables of the kernel, built on first use.

    ``E - _E_MIN`` indexes ``pow10`` (the ``hi``, its Dekker halves and the
    ``lo`` of ``10^(16 - E)``) and the layout of exponent ``E``: ``q2``
    twice ``q``, the significand digits before the point (0 for ``0.``),
    ``tens`` ``10^(17 - q)``, whose remainder is the digits after the
    point, ``lead`` ten times the zeros after ``0.`` plus one and ``exps``
    the ``e+XX`` word of the exponent form.  ``heads[100 * newline + 50 *
    minus + lead + d]`` is the separator, sign, ``0.000`` lead and leading
    digit ``d``.  ``groups[g]`` is the 4-digit group ``g``, each digit after
    a NUL byte where a point may go, and ``groups[10000 + g]`` the same with
    its trailing zeros NUL.  ``marks[k][q2 + fraction]`` is ORed into the
    ``k``-th group of the 16 digits after the leading one: ``0`` over its
    digits before the point, which a NUL trailing zero must show, and the
    point before digit ``q`` if ``fraction``, that is, if any digit after
    it is not zero."""
    exponents = range(_E_MIN, _E_MAX + 1)
    pow10 = np.array([_pow10_pair(16 - E) for E in exponents]).T.copy()
    scaled = pow10[0] * _DEKKER_SPLIT
    high = scaled - (scaled - pow10[0])
    pow10 = np.vstack([pow10[0], high, pow10[0] - high, pow10[1]])

    fixed = [-4 <= E < 17 for E in exponents]
    q = [max(E + 1, 0) if f else 1 for E, f in zip(exponents, fixed)]
    q2 = 2 * np.array(q)
    tens = np.array([10 ** (17 - digits) for digits in q])
    lead = np.array([-10 * E if f and E < 0 else 0 for E, f in zip(exponents, fixed)])
    exps = _words([b"" if f else b"e%+03d" % E for E, f in zip(exponents, fixed)])
    heads = _words(
        [
            (sep + sign + lead_text + digit).encode()
            for sep in ",\n"
            for sign in ("", "-")
            for lead_text in ("", "0.", "0.0", "0.00", "0.000")
            for digit in "0123456789"
        ]
    )

    place = np.array([1000, 100, 10, 1], np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // place % 10 + 48).astype(np.uint8)
    nonzero = digits != 48
    length = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    groups = np.zeros((2, 10000, 8), np.uint8)
    groups[:, :, 1::2] = digits
    groups[1, :, 1::2] *= np.arange(4) < length[:, None]
    groups = groups.reshape(-1, 8).view(np.uint64).ravel()

    marks = np.zeros((4, 36, 8), np.uint8)
    for k in range(4):
        for before in range(18):
            r = before - (4 * k + 1)  # the group's digits before the point
            marks[k, 2 * before : 2 * before + 2, 1 : 2 * min(max(r, 0), 4) : 2] = 48
            if 0 <= r < 4:
                marks[k, 2 * before + 1, 2 * r] = 46
    marks = marks.view(np.uint64)[:, :, 0]
    tables = (pow10, q2, tens, lead, exps, heads, groups, marks)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a, E, pow10):
    """``(hi, lo)`` with ``hi + lo = a 10^(16 - E)`` to within ``2^-104`` of
    it: Dekker's exact product of ``a`` and the table's ``hi``, plus ``a``
    times its ``lo``, renormalized."""
    row = E - _E_MIN
    ten, ten_high, ten_low, ten_lo = (table.take(row) for table in pow10)
    scaled = a * _DEKKER_SPLIT
    high = scaled - (scaled - a)
    low = a - high
    product = a * ten
    error = ((high * ten_high - product) + high * ten_low + low * ten_high) + low * ten_low
    error += a * ten_lo
    hi = product + error
    return hi, error - (hi - product)


def _slots(x, newline, tables, slot):
    """Writes into the ``x.size x 6`` ``uint64`` words ``slot`` the bytes of
    ``"%.17g"`` of each of ``x``, after a ``,`` or, where ``newline`` is
    100, a ``\\n``, padded with NUL bytes; see :func:`write_csv`."""
    pow10, q2, tens, lead, exps, heads, groups, marks = tables
    a = np.abs(x)
    ok = (a >= _RANGE[0]) & (a < _RANGE[1])
    a[~ok] = 2.0  # any value inside the range whose 10^(16 - E) needs no correction
    E = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, E, pow10)
    # hi + lo outside [10^16, 10^17]: log10 missed E by one
    off = np.flatnonzero(((hi - 1e16) + lo) * ((hi - 1e17) + lo) > 0)
    if off.size:
        h, l = hi[off], lo[off]
        E[off] += (((h - 1e17) + l) >= 0).astype(np.int64) - (((h - 1e16) + l) < 0)
        hi[off], lo[off] = _scaled(a[off], E[off], pow10)
    whole = np.floor(lo + 0.5)
    S = hi.astype(np.int64) + whole.astype(np.int64)
    tie = np.abs(lo - whole) > 0.5 - _TIE_BAND
    # S outside [10^16, 10^17] would be a log10 off by two, which its
    # accuracy rules out; % formats such a value all the same
    to_format = np.flatnonzero(~ok | tie | (S < 10**16) | (S > 10**17))
    S[to_format] = 10**16
    carry = S == 10**17
    S[carry] = 10**16
    E += carry
    row = E - _E_MIN
    top = S // 10**8
    bottom = S - top * 10**8
    leading = top // 10**8
    fours = top // 10**4
    g0 = fours - leading * 10**4
    g1 = top - fours * 10**4
    g2 = bottom // 10**4
    g3 = bottom - g2 * 10**4
    point = q2.take(row) + (S % tens.take(row) != 0)
    slot[:, 0] = heads.take(newline + 50 * (x < 0) + lead.take(row) + leading)
    slot[:, 1] = groups.take(g0 + 10000 * ((g1 | bottom) == 0)) | marks[0].take(point)
    slot[:, 2] = groups.take(g1 + 10000 * (bottom == 0)) | marks[1].take(point)
    slot[:, 3] = groups.take(g2 + 10000 * (g3 == 0)) | marks[2].take(point)
    slot[:, 4] = groups.take(g3 + 10000) | marks[3].take(point)
    slot[:, 5] = exps.take(row)
    if to_format.size:
        texts = [b"%.17g" % value for value in x[to_format].tolist()]
        slot.view(np.uint8)[to_format, 1:] = np.array(texts, dtype="S47").view(np.uint8).reshape(-1, 47)


def write_csv(path, header, rows):
    """``rows`` (at least one column) as comma-separated lines under one
    header line: byte for byte ``",".join("%.17g" % v for v in row)`` per
    row, which is ``np.savetxt(..., fmt="%.17g", delimiter=",")``.

    A numpy kernel writes the bytes of ``%.17g`` a block of ``_BLOCK_VALUES``
    values at a time.  For ``|x|`` in ``_RANGE`` it takes the decimal
    exponent ``E`` from ``log10|x|``, corrected by one where ``|x| 10^(16 -
    E)`` falls outside ``[10^16, 10^17)``, and the 17-digit significand
    ``S`` as that product rounded to the nearest integer: a double-double
    ``hi + lo`` (Dekker's split and an exact ``(hi, lo)`` table of powers of
    ten), whose fraction decides the rounding.  ``S`` becomes ASCII through
    a table of 4-digit groups, laid out as ``%g`` does: fixed notation for
    ``-4 <= E < 17``, else ``d.ddde+XX`` with at least two exponent digits,
    and no trailing zeros after the point.  Each value fills a fixed slot of
    six 8-byte words padded with NUL bytes (the separator, sign, ``0.000``
    lead and leading digit; four groups of the other 16 digits, with the
    point; the exponent), and one ``bytes.translate`` per block removes the
    padding.

    Python's ``%`` formats what the kernel cannot decide exactly: +-0, inf,
    nan, ``|x|`` outside ``_RANGE`` and any value whose fraction lies within
    ``_TIE_BAND = 2^-44`` of 1/2, an exact tie among them, which ``%``
    rounds half to even.  Outside that band the kernel's rounding is the
    correct one, as ``hi + lo`` is within ``2^-104 * 10^17 < 2^-47`` of the
    exact ``|x| 10^(16 - E)``: the table's ``hi + lo`` is ``10^k`` to within
    ``2^-106`` of it, the product of ``|x|`` and the table's ``hi`` is
    exact, rounding ``|x|`` times its ``lo`` errs by at most ``2^-106`` of
    the product and adding that to the product's error term by at most
    ``2^-105``; on ``_RANGE`` no partial product overflows or underflows.
    So the output is ``%``'s bytes by construction."""
    count, cols = rows.shape
    block = max(1, _BLOCK_VALUES // cols)
    tables = _tables()
    newline = np.where(np.arange(block * cols) % cols == 0, 100, 0)
    slots = np.empty((block * cols, 6), np.uint64)  # reused by every block
    with open(path, "wb") as handle:
        handle.write(",".join(header).encode())
        for start in range(0, count, block):
            values = rows[start : start + block].ravel()
            slot = slots[: values.size]
            _slots(values, newline[: values.size], tables, slot)
            handle.write(slot.tobytes().translate(None, b"\0"))
        handle.write(b"\n")
