"""CSV text of a float array, byte for byte what ``'%.17g' % x`` prints per cell.

``csv_chunks(values)`` yields the rows of a 2-D float array as text: cells
joined by ``,``, every row ended by ``\\n``.  It works on bounded chunks of
whole rows, with a fixed number of numpy passes per chunk instead of one
CPython dtoa call per cell.

Per cell with 1e-279 <= |x| < 1e280 and E = floor(log10 |x|):

- The 17-digit integer N in [10^16, 10^17) is |x| * 10^(16-E) rounded half
  to even.  10^k is a double-double hi + lo built from exact integers, and
  |x| * hi is split exactly into p + e by Dekker's two-product, so the
  product's fraction is exact wherever lo is 0 (k = 0..22) and within about
  1e-15 elsewhere.
- A cell is handed to Python's ``'%.16e'`` (the same 17 correctly rounded
  digits) when that fraction lies within 1e-7 of one half and lo is not 0,
  when log10 misjudged the decade (the unrounded N falls outside
  [10^16, 10^17)), or when |x| is outside [1e-279, 1e280).  Zeros, infinities
  and NaNs (whatever their sign bit) are printed from the layout table.
- N becomes ASCII through a 10^4-entry table of 4-digit chunks, and the
  number of significant digits d (trailing zeros dropped) comes from the
  same chunks.
- Each cell is laid out in a 32-byte row: sign, leading ``0.000``, the digit
  run with its point, exponent and separator sit in fixed columns and unused
  bytes are zero.  One gather from a table keyed by (decimal exponent, d,
  sign) gives the constant bytes and the masks that pick the digits before
  and after the point; the zero bytes are then dropped.  The table encodes
  ``%g``'s exponent form below 1e-4 and from 1e17, the stripped zeros and
  point, and the two- or three-digit exponent.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK_CELLS = 2048   # cells per chunk; bounds the per-chunk temporaries

_EMIN, _EMAX = -280, 280          # decades computed in double-double
_TINY, _HUGE = 1e-279, 1e280      # |x| outside [_TINY, _HUGE) goes to the fallback
_XMIN, _XMAX = -324, 308          # decimal exponents of finite non-zero doubles
_SPECIALS = (b"0", b"-0", b"inf", b"-inf", b"nan")
_SPLIT = 134217729.0              # 2^27 + 1, Dekker's splitter

# Columns of a cell's 32-byte row.  The digit run holds D0..D16 with the
# point at position q; DL puts D_j at column _RUN + j, DR at _RUN + j + 1.
_W = 32
_RUN = 7
_EXP = 25
_SEP = 30


def _layout_block(X: int) -> np.ndarray:
    """(3, 34, 32): template, DL mask and DR mask rows for exponent X, per (d, sign)."""
    lead, exp = b"", b""
    if 0 <= X < 17:
        q = X + 1                     # the point follows the integer digits
    elif -4 <= X < 0:
        lead, q = b"0." + b"0" * (-X - 1), 17      # no point in the run
    else:
        exp, q = b"e%+03d" % X, 1
    col = np.arange(_W)
    d = np.arange(1, 18)[:, None]
    kept = np.maximum(d, X + 1) if 0 <= X < 17 else d     # digits printed
    rows = np.zeros((3, 17, 2, _W), np.uint8)
    rows[0, :, :, 1:1 + len(lead)] = np.frombuffer(lead, np.uint8)
    rows[0, :, :, _EXP:_EXP + len(exp)] = np.frombuffer(exp, np.uint8)
    rows[0, :, 1, 0] = ord("-")
    point = kept > q
    if q < 17:
        rows[0, :, :, _RUN + q] = np.where(point, ord("."), 0)
    in_run = (col >= _RUN) & (col <= _RUN + kept)
    rows[1] = np.where((in_run & (col < _RUN + np.minimum(q, kept))) | (col == _SEP), 255, 0)[:, None]
    rows[2] = np.where(in_run & point & (col > _RUN + q), 255, 0)[:, None]
    return rows.reshape(3, 34, _W)


class _Tables:
    """Constants of the formatter, each decade filled on first use.

    Filling is idempotent, so one instance serves the whole process.
    """

    def __init__(self):
        # digit j of the 4-digit chunk 1000 c0 + 100 c1 + 10 c2 + c3 on axis j
        digit = [np.arange(10, dtype=np.int8).reshape([10 if i == j else 1 for i in range(4)])
                 for j in range(4)]
        ascii4 = np.empty((10, 10, 10, 10, 4), np.int8)
        for j in range(4):
            ascii4[..., j] = digit[j] + ord("0")
        self.lut = ascii4.view(np.uint32).ravel()
        # position (1-4) of the chunk's last non-zero digit, 0 for chunk 0
        last = functools.reduce(np.maximum, [(digit[j] != 0) * np.int8(j + 1) for j in range(4)]).ravel()
        # significant digits of N when its chunk D1-4, D5-8, D9-12 or D13-16
        # holds the last non-zero digit
        self.sig = [(last + np.int8(base)) * (last > 0) for base in (1, 5, 9, 13)]
        # per decade E: hi, hi's Dekker halves, lo, and the fallback band
        # around one half (0 where 10^(16-E) is an exact double)
        self.pow = np.empty((5, _EMAX - _EMIN + 1))
        self.pow_done = np.zeros(_EMAX - _EMIN + 1, bool)
        n_x = _XMAX - _XMIN + 1
        self.layout = np.empty((3, len(_SPECIALS) + 34 * n_x, _W), np.uint8)
        self.layout_done = np.zeros(n_x, bool)
        self.layout[:, :len(_SPECIALS)] = 0
        for i, text in enumerate(_SPECIALS):
            self.layout[0, i, :len(text)] = np.frombuffer(text, np.uint8)
            self.layout[1, i, _SEP] = 255

    def fill_powers(self, lo: int, hi: int) -> None:
        """10^(16-E) as hi + lo, and hi's Dekker split, for E - _EMIN in [lo, hi]."""
        for i in range(lo, hi + 1):
            if self.pow_done[i]:
                continue
            k = 16 - (i + _EMIN)
            if k >= 0:
                exact = 10 ** k
                h = float(exact)
                low = float(exact - int(h))
            else:
                den10 = 10 ** -k
                h = 1 / den10                      # correctly rounded
                num, den2 = h.as_integer_ratio()
                low = (den2 - num * den10) / (den2 * den10)
            t = h * _SPLIT
            h_hi = t - (t - h)
            self.pow[:, i] = (h, h_hi, h - h_hi, low, 0.0 if low == 0 else 1e-7)
            self.pow_done[i] = True

    def fill_layouts(self, lo: int, hi: int) -> None:
        for i in range(lo, hi + 1):
            if not self.layout_done[i]:
                row = len(_SPECIALS) + 34 * i
                self.layout[:, row:row + 34] = _layout_block(i + _XMIN)
                self.layout_done[i] = True


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _decimal(v: np.ndarray, tab: _Tables):
    """The 17-digit integer N and decimal exponent X of each cell of ``v``.

    Returns (N, X, special): ``special`` marks zeros, infinities and NaNs (or
    is None when there are none); their N and X are placeholders.
    """
    a = np.abs(v)
    slow = (a < _TINY) | ~(a < _HUGE)
    special = None
    if slow.any():
        special = slow & ~(np.isfinite(v) & (v != 0))
        a[slow] = 1.0
    E = np.log10(a)
    np.floor(E, out=E)
    ei = E.astype(np.intp)
    ei -= _EMIN
    lo, hi = ei.min(), ei.max()
    if not tab.pow_done[lo:hi + 1].all():
        tab.fill_powers(lo, hi)
    h, h_hi, h_lo, low, band = (row.take(ei) for row in tab.pow)
    # |x| * 10^(16-E) = p + e + |x| * low, with p + e exact (Dekker)
    p = a * h
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    e = a_lo * h_lo - (((p - a_hi * h_hi) - a_lo * h_hi) - a_hi * h_lo)
    e += a * low
    fl = np.floor(e)
    e -= fl                                  # the fraction
    # p >= 2^53 is an integer; the unrounded N must lie in [10^16, 10^17)
    N = p.astype(np.int64)
    N += fl.astype(np.int64)
    fallback = (N < 10**16) | (N >= 10**17) | (np.abs(e - 0.5) < band)
    N += (e > 0.5) | ((e == 0.5) & (N & 1 == 1))
    carry = N == 10**17
    N[carry] = 10**16
    X = ei + carry
    X += _EMIN
    if special is not None:
        fallback |= slow & ~special
    for i in np.flatnonzero(fallback):
        text = "%.16e" % abs(v[i])
        N[i] = int(text[0] + text[2:18])
        X[i] = int(text[19:])
    return N, X, special


def csv_chunks(values: np.ndarray):
    """Yield the CSV rows of a 2-D float array as text, a chunk of rows at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return
    tab = _tables()
    n_rows, n_cols = values.shape
    rows = max(1, min(n_rows, _CHUNK_CELLS // n_cols))
    size = rows * n_cols
    # DR is DL shifted right by one byte: the digits after the point
    buf = np.zeros(size * _W + 4, np.uint8)
    dl = buf[4:].reshape(size, _W)
    dr = buf[3:-1].reshape(size, _W)
    seps = dl.reshape(rows, n_cols, _W)
    seps[:, :, _SEP] = ord(",")
    seps[:, -1, _SEP] = ord("\n")
    dl32 = dl.view(np.uint32)
    chunk4 = np.empty((size, 5), np.intp)
    ascii4 = np.empty((size, 5), np.uint32)
    text, left, right = np.empty((3, size, _W), np.uint8)
    for r0 in range(0, n_rows, rows):
        v = values[r0:r0 + rows].ravel()
        m = v.size
        N, X, special = _decimal(v, tab)
        # the 17 digits: D0 then four 4-digit chunks
        c = chunk4[:m]
        hi9, lo8 = np.divmod(N, 10**8)
        np.divmod(hi9, 10**8, out=(c[:, 0], hi9))
        np.divmod(hi9, 10**4, out=(c[:, 1], c[:, 2]))
        np.divmod(lo8, 10**4, out=(c[:, 3], c[:, 4]))
        np.take(tab.lut, c, out=ascii4[:m], mode="clip")
        dl32[:m, 1:6] = ascii4[:m]      # "000" D0 ... D16 in bytes 4..23
        sig = tab.sig
        d = np.maximum(sig[3].take(c[:, 4]), sig[2].take(c[:, 3]))
        np.maximum(d, sig[1].take(c[:, 2]), out=d)
        np.maximum(d, sig[0].take(c[:, 1]), out=d)
        np.maximum(d, 1, out=d)
        X -= _XMIN
        lo, hi = X.min(), X.max()
        if not tab.layout_done[lo:hi + 1].all():
            tab.fill_layouts(lo, hi)
        # layout row: after the specials, 34 per exponent, 2 per digit count
        key = X * 34
        key += d * 2
        key += np.signbit(v)
        key += len(_SPECIALS) - 2
        if special is not None:
            vs = v[special]
            code = np.where(vs == 0, 0, 2) + np.signbit(vs)
            code[np.isnan(vs)] = 4
            key[special] = code
        for table, part in zip(tab.layout, (text, left, right)):
            np.take(table, key, axis=0, out=part[:m], mode="clip")
        left[:m] &= dl[:m]
        right[:m] &= dr[:m]
        text[:m] |= left[:m]
        text[:m] |= right[:m]
        yield text[:m].tobytes().translate(None, b"\0").decode("ascii")
