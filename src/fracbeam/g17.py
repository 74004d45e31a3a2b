"""Table text of a float array: CSV cells byte for byte ``'%.17g' % x``, JSON
cells byte for byte Python's shortest round-trip ``repr(x)``.

``csv_chunks(values)`` yields the rows of a 2-D float array as CSV text: cells
joined by ``,``, every row ended by ``\\n``.  ``json_chunks(values, is_int)``
yields the cells of the ``rows`` list of ``json.dumps(doc, indent=1)``: cells
joined by ``,\\n   ``, rows by ``\\n  ],\\n  [\\n   ``, with no separator after
the last cell.  Both work on bounded chunks of whole rows, with a fixed number
of numpy passes per chunk instead of one CPython dtoa call per cell.

Each chunk's cells are of three kinds, and only the first is converted:

- A finite non-zero cell outside an integer column gets its digits N and
  decimal exponent X from the double-double product below.
- A non-zero cell of a JSON integer column (an integer below 2^53 in
  magnitude) has X from exact comparisons with 10^0 .. 10^15 and
  N = |x| * 10^(16-X), an exact int64 product: its digits are those of
  ``int(x)``, with no rounding to decide.
- A zero, infinity or NaN takes a constant row of the layout table, the same
  text ``'%.17g'``, ``repr`` or ``int`` gives it (JSON prints ``null`` for a
  non-finite cell), and gets no digits, no digit count and no layout key.

A chunk made only of the first kind, as a time series' chunks past t = 0
are, is converted in place; any other is gathered into one array of the
first kind followed by the second, and its digits scattered back.  Chunks of
4096 cells formatted the four benchmark workloads' tables 6-19% faster than
chunks of 2048 (2 vCPU, Python 3.11, numpy 2.4); chunks of 8192 were no
faster and take twice the buffers.

Per converted cell with 1e-279 <= |x| < 1e280 and E = floor(log10 |x|):

- |x| * 10^(16-E) is split into its floor Y in [10^16, 10^17) and fraction f.
  10^k is a double-double hi + lo built from exact integers, and |x| * hi is
  split exactly into p + e by Dekker's two-product, so f is exact wherever lo
  is 0 (k = 0..22) and within about 1e-15 elsewhere.  A cell whose decade
  log10 misjudged (Y outside [10^16, 10^17)) or with |x| outside
  [1e-279, 1e280) goes to Python.
- CSV: the 17 digits N are Y + f rounded half to even.  Python's ``'%.16e'``
  (the same 17 correctly rounded digits) is used when f lies within 1e-7 of
  one half and lo is not 0.
- JSON: let u be the gap from |x| to the next double, in units of Y (1.1 <
  u < 22.3).  N is the multiple of 100 nearest to Y + f if it lies within u/2,
  else the nearest multiple of 10 if it does, else the nearest integer; the
  trailing zeros are dropped as below.  An interval under 100 units wide holds
  at most one multiple of 100, so if any decimal of 15 or fewer digits reads
  back as x it is that one, and among 16 or 17 digits repr takes the nearest.
  Python's ``repr`` is used for ties between two candidates, for distances
  within a band of u/2 (1e-7, and 1e-12 for the rounding of the distances where
  lo is 0), and for powers of two, whose interval below x is half as wide.
- N becomes ASCII through a 10^4-entry table of 4-digit chunks, and the
  number of significant digits d (trailing zeros dropped) comes from the
  same chunks.  An integer prints all its X + 1 digits whatever d is, so its
  d is taken as 1.
- Each cell's text is built in a row of its own, from the row's first
  byte: the sign and any leading ``0.000`` flush against the digit run and
  its point, the exponent right after the last digit kept, then the
  separator that follows the cell (after a cell, after a row's last cell,
  or, for the table's last cell, none in JSON).  One gather from the layout
  rows, keyed by (separator kind, family, decimal exponent, d, sign), gives
  the constant bytes, the masks that pick the digits before and after the
  point, the column of D0 and the text's length.  The CSV rows encode
  ``%g``'s exponent form below 1e-4 and from 1e17, the stripped zeros and
  point, and the two- or three-digit exponent; the JSON rows encode repr's
  exponent form below 1e-4 and from 1e16 and its ``.0`` after an integral
  value, and an integer column's cells print as ``int(x)`` would.
- The cumulative sum of the lengths places each cell's text in the chunk's
  text.  One fancy assignment writes every row, whole, as a void item at
  its offset in a buffer that holds them one byte apart; the items overlap,
  and each row's bytes past its length are overwritten by the rows after
  it.  This relies on numpy writing the items of one assignment in index
  order, which a test pins.
- The layout rows are stored by blocks of 34 (d, sign) rows per (separator
  kind, family, exponent), filled on first use and kept in that order: a map
  from block to slot and one store, reserved just under the 4 MiB from
  which numpy asks for huge pages, so that only the pages of filled blocks
  become resident.  The store doubles if it is ever full.  The four
  benchmark workloads' tables use 32-35 CSV blocks and 44-46 JSON blocks
  of the 1266 and 3798 there are.  A store that grows while a chunk's
  buffers are live leaves a hole in the heap below it: grown by doubling
  from 8 blocks, it raised a free-decay run's peak resident memory by
  1.9 MB.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_CHUNK_CELLS = 4096   # cells per chunk; bounds the per-chunk temporaries

_EMIN, _EMAX = -280, 280          # decades computed in double-double
_TINY, _HUGE = 1e-279, 1e280      # |x| outside [_TINY, _HUGE) goes to the fallback
_XMIN, _XMAX = -324, 308          # decimal exponents of finite non-zero doubles
_N_X = _XMAX - _XMIN + 1
_SPLIT = 134217729.0              # 2^27 + 1, Dekker's splitter
_MANTISSA = np.uint64(2**52 - 1)  # stored mantissa bits; 0 for a power of two
_POW10 = np.array([10**k for k in range(16)], float)             # exact doubles
_SCALE = np.array([10**(16 - k) for k in range(16)], np.int64)   # 10^(16-X)
# bytes of layout rows reserved per format, just under the 4 MiB from which
# numpy asks for huge pages: only the pages of the blocks filled are touched
_RESERVE = 4_000_000


class _Format(NamedTuple):
    """A cell syntax: row width, separators, digit rule and layout families.

    Each family is (texts of +0, -0, +inf, -inf and NaN, top, pad): numbers
    are in fixed notation for -4 <= X < top, and from X >= 0 keep at least
    X + 1 + pad digits.
    """
    width: int
    seps: tuple           # after a cell, after a row's last cell, after the table's last cell
    shortest: bool        # shortest round-trip digits, else 17
    families: tuple


_CSV = _Format(32, (b",", b"\n", b"\n"), False,
               (((b"0", b"-0", b"inf", b"-inf", b"nan"), 17, 0),))
_JSON = _Format(40, (b",\n   ", b"\n  ],\n  [\n   ", b""), True,
                (((b"0.0", b"-0.0", b"null", b"null", b"null"), 16, 1),    # float
                 ((b"0", b"0", b"null", b"null", b"null"), 17, 0)))        # integer column


def _layout_block(X: int, top: int, pad: int, width: int, sep: bytes):
    """Template, DL mask and DR mask rows for exponent X, per (d, sign), and their text.

    Returns the (3, 34, width) rows and the (2, 34) offset of D0 and length
    of the text in each row.
    """
    lead, exp = b"", b""
    if 0 <= X < top:
        q = X + 1                     # the point follows the integer digits
    elif -4 <= X < 0:
        lead, q = b"0." + b"0" * (-X - 1), 17      # no point in the run
    else:
        exp, q = b"e%+03d" % X, 1
    rows = np.zeros((3, 17, 2, width), np.uint8)
    sizes = np.zeros((2, 17, 2), np.intp)
    for d in range(1, 18):
        kept = max(d, X + 1 + pad) if 0 <= X < top else d       # digits printed
        point = kept > q
        for sign in (0, 1):
            head = b"-" * sign + lead
            s = len(head)
            end = s + kept + point
            tail = exp + sep
            text, dl, dr = rows[:, d - 1, sign]
            text[:s] = np.frombuffer(head, np.uint8)
            if point:
                text[s + q] = ord(".")
            text[end:end + len(tail)] = np.frombuffer(tail, np.uint8)
            dl[s:s + min(q, kept)] = 255
            if point:
                dr[s + q + 1:end] = 255
            sizes[:, d - 1, sign] = s, end + len(tail)
    return rows.reshape(3, 34, width), sizes.reshape(2, 34)


class _Tables:
    """Digit constants shared by every format, each decade filled on first use.

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


class _Layout:
    """The layout rows of one format, in blocks filled on first use and stored in that order.

    A block is the 34 rows, 2 per digit count d and one per sign, of one
    (separator kind, family, exponent): its number is (kind * families +
    family) * _N_X + X - _XMIN, and ``slot`` maps it to its place, -1 until
    it is filled.  ``rows`` holds the template, DL mask and DR mask rows of
    the specials (5 per kind and family) and then of each block by slot;
    ``sizes`` holds each row's column of D0 and text length.  Both are
    reserved (``_RESERVE`` bytes) and written only as blocks are filled, so
    the resident pages grow with the blocks in use; both double if full.
    """

    def __init__(self, fmt: _Format):
        self.fmt = fmt
        n_codes = len(fmt.seps) * len(fmt.families)
        self.n_specials = 5 * n_codes
        self.slot = np.full(n_codes * _N_X, -1, np.intp)
        self.n_blocks = 0
        n_rows = _RESERVE // (3 * fmt.width + 2 * np.dtype(np.intp).itemsize)
        self.rows = np.empty((3, n_rows, fmt.width), np.uint8)
        self.sizes = np.empty((2, n_rows), np.intp)
        self.rows[:, :self.n_specials] = 0
        self.sizes[:, :self.n_specials] = 0
        texts = [text + sep for sep in fmt.seps for specials, _top, _pad in fmt.families
                 for text in specials]
        for i, text in enumerate(texts):
            self.rows[0, i, :len(text)] = np.frombuffer(text, np.uint8)
            self.sizes[1, i] = len(text)

    def fill(self, blocks) -> None:
        for b in blocks:
            code, i = divmod(b, _N_X)
            kind, family = divmod(code, len(self.fmt.families))
            _specials, top, pad = self.fmt.families[family]
            row = self.n_specials + 34 * self.n_blocks
            if row + 34 > self.rows.shape[1]:
                self.rows, self.sizes = (_doubled(a, row) for a in (self.rows, self.sizes))
            self.rows[:, row:row + 34], self.sizes[:, row:row + 34] = _layout_block(
                i + _XMIN, top, pad, self.fmt.width, self.fmt.seps[kind])
            self.slot[b] = self.n_blocks
            self.n_blocks += 1


def _doubled(a: np.ndarray, used: int) -> np.ndarray:
    """``a`` with twice the rows on axis 1, its first ``used`` copied."""
    out = np.empty((a.shape[0], 2 * a.shape[1]) + a.shape[2:], a.dtype)
    out[:, :used] = a[:, :used]
    return out


@functools.cache
def _tables() -> _Tables:
    return _Tables()


@functools.cache
def _layout(fmt: _Format) -> _Layout:
    return _Layout(fmt)


def _product(v: np.ndarray, tab: _Tables):
    """|x| * 10^(16-E) of each finite non-zero cell of ``v`` as its floor Y and fraction f.

    Returns (|x|, Y, f, E - _EMIN, hi, band, bad): hi and band are the
    decade's 10^(16-E) and fallback band, and ``bad`` marks the cells that
    need the fallback whatever their digits.  The other outputs of bad cells
    are placeholders.
    """
    a = np.abs(v)
    slow = False
    if a.min() < _TINY or a.max() >= _HUGE:
        slow = (a < _TINY) | (a >= _HUGE)
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
    # p >= 2^53 is an integer; Y must lie in [10^16, 10^17)
    Y = p.astype(np.int64)
    Y += fl.astype(np.int64)
    bad = (Y < 10**16) | (Y >= 10**17)
    bad |= slow
    return a, Y, e, ei, h, band, bad


def _exponents(N: np.ndarray, ei: np.ndarray) -> np.ndarray:
    """Fold a rounded N of 10^17 into 10^16; return the decimal exponents."""
    carry = N == 10**17
    N[carry] = 10**16
    X = ei + carry
    X += _EMIN
    return X


def _decimal(v: np.ndarray, tab: _Tables):
    """The 17-digit integer N and decimal exponent X of ``'%.17g'`` for each finite non-zero cell."""
    _a, N, f, ei, _h, band, fallback = _product(v, tab)
    fallback |= np.abs(f - 0.5) < band
    N += (f > 0.5) | ((f == 0.5) & (N & 1 == 1))
    X = _exponents(N, ei)
    for i in np.flatnonzero(fallback):
        text = "%.16e" % abs(v[i])
        N[i] = int(text[0] + text[2:18])
        X[i] = int(text[19:])
    return N, X


def _shortest(v: np.ndarray, tab: _Tables):
    """Shortest round-trip digits, as a 17-digit N with trailing zeros, and X per finite non-zero cell."""
    a, Y, f, ei, h, band, fallback = _product(v, tab)
    half = np.spacing(a)
    half *= h
    half *= 0.5                              # half the gap to the next double
    tol = band + 1e-12
    r100 = Y % 100
    r10 = r100 % 10
    s15 = r100 + f                           # above the multiple of 100 below
    s16 = r10 + f
    d15 = np.minimum(s15, 100 - s15)         # to the nearest multiple of 100
    d16 = np.minimum(s16, 10 - s16)
    ambiguous = (np.abs(d15 - half) <= tol) | (np.abs(d16 - half) <= tol)
    unit = np.where(d15 < half, 100, np.where(d16 < half, 10, 1))
    rem = Y % unit
    s = rem + f
    ambiguous |= np.abs(s - 0.5 * unit) <= tol        # a tie between two candidates
    ambiguous |= (v.view(np.uint64) & _MANTISSA) == 0  # a power of two
    fallback |= ambiguous
    Y -= rem
    Y += unit * (s > 0.5 * unit)
    X = _exponents(Y, ei)
    for i in np.flatnonzero(fallback):
        text, _, exp = repr(abs(v.item(i))).partition("e")
        whole, _, frac = text.partition(".")
        digits = (whole + frac).lstrip("0")
        lead = len(whole) + len(frac) - len(digits)      # zeros before the first digit
        Y[i] = int(digits.ljust(17, "0"))
        X[i] = len(whole) - 1 - lead + int(exp or 0)
    return Y, X


def _integers(v: np.ndarray):
    """N and X of non-zero integers below 2^53 in magnitude: N = |x| 10^(16-X), no rounding."""
    a = np.abs(v)
    X = np.searchsorted(_POW10, a, side="right")
    X -= 1
    N = a.astype(np.int64)
    N *= _SCALE.take(X)
    return N, X


def _void_items(buf: np.ndarray, offset: int, size: int) -> np.ndarray:
    """Every run of ``size`` bytes of ``buf`` from ``offset`` on, as void items one byte apart."""
    return np.ndarray((buf.size - offset - size + 1,), f"V{size}", buf, offset, (1,))


def _chunks(values: np.ndarray, fmt: _Format, is_int=None):
    """Yield the text of a 2-D float array in ``fmt``, a chunk of whole rows at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return
    tab, lay = _tables(), _layout(fmt)
    n_rows, n_cols = values.shape
    rows = max(1, min(n_rows, _CHUNK_CELLS // n_cols))
    size = rows * n_cols
    width = fmt.width
    # each cell's separator kind and family: (kind * families + family)
    family = np.zeros(n_cols, np.intp) if is_int is None else np.asarray(is_int, np.intp)
    codes = np.tile((np.arange(n_cols) == n_cols - 1) * len(fmt.families) + family, rows)
    in_int = np.tile(family == 1, rows) if family.any() else None
    # DR is DL shifted right by one byte: the digits after the point.  A
    # cell's digit run "000" D0 ... D16 is one 20-byte item with D0 at the
    # row's column of D0; the "000" before it lands in bytes no mask picks.
    buf = np.zeros(size * width + 4, np.uint8)
    dl = buf[4:].reshape(size, width)
    dr = buf[3:-1].reshape(size, width)
    runs = _void_items(buf, 1, 20)
    row_at = np.arange(size) * width
    chunk4 = np.empty((size, 5), np.intp)
    ascii4 = np.empty((size, 5), np.uint32)
    ascii20 = ascii4.view("V20").ravel()
    text, left, right = np.empty((3, size, width), np.uint8)
    cells_text = text.view(f"V{width}").ravel()
    # the text placed over ``left`` once its masks are spent
    out = left.reshape(-1)
    placed = _void_items(out, 0, width)
    for r0 in range(0, n_rows, rows):
        v = values[r0:r0 + rows].ravel()
        m = v.size
        code = codes[:m]
        if r0 + rows >= n_rows and fmt.seps[2] != fmt.seps[1]:
            code = code.copy()              # the table's last cell has its own separator
            code[-1] += len(fmt.families)
        # Three kinds of cell: those with decimal digits to find, an integer
        # column's non-zero integers, and the specials (zeros, infinities and
        # NaNs).  ``cells`` lists the first two kinds in that order.
        has = np.isfinite(v)
        has &= v != 0
        whole, n_int = False, 0
        if in_int is None:
            whole = has.all()
            cells = slice(m) if whole else np.flatnonzero(has)
        else:
            fam = in_int[:m]
            ints = np.flatnonzero(has & fam)
            cells = np.concatenate([np.flatnonzero(has & ~fam), ints])
            n_int = ints.size
        w = v[cells]
        k = w.size
        n = k - n_int
        if n:
            N, X = _shortest(w[:n], tab) if fmt.shortest else _decimal(w[:n], tab)
        else:
            N, X = np.empty(0, np.int64), np.empty(0, np.intp)
        if n_int:
            N_int, X_int = _integers(w[n:])
            N, X = np.concatenate([N, N_int]), np.concatenate([X, X_int])
        # the layout block, 34 rows per block
        block = code[cells] * _N_X
        block += X
        block -= _XMIN
        # the 17 digits: D0 then four 4-digit chunks
        c = chunk4[:k]
        hi9, lo8 = np.divmod(N, 10**8)
        np.divmod(hi9, 10**8, out=(c[:, 0], hi9))
        np.divmod(hi9, 10**4, out=(c[:, 1], c[:, 2]))
        np.divmod(lo8, 10**4, out=(c[:, 3], c[:, 4]))
        np.take(tab.lut, c, out=ascii4[:k], mode="clip")
        # significant digits; an integer prints all its X + 1 digits, so its d is 1
        sig, c = tab.sig, c[:n]
        d = np.maximum(sig[3].take(c[:, 4]), sig[2].take(c[:, 3]))
        np.maximum(d, sig[1].take(c[:, 2]), out=d)
        np.maximum(d, sig[0].take(c[:, 1]), out=d)
        np.maximum(d, 1, out=d)
        if n_int:
            d = np.concatenate([d, np.ones(n_int, d.dtype)])
        slot = lay.slot.take(block)
        if k and slot.min() < 0:
            lay.fill(set(block[slot < 0].tolist()))
            slot = lay.slot.take(block)
        key = slot * 34
        key += d * 2
        key += np.signbit(w)
        key += lay.n_specials - 2
        head = lay.sizes[0].take(key)
        head += row_at[cells]
        runs[head] = ascii20[:k]
        if not whole:
            # a special's row among the specials: +0, -0, +inf, -inf, NaN per code
            full = np.where(v == 0, 0, 2) + np.signbit(v)
            full[np.isnan(v)] = 4
            full += 5 * code
            full[cells] = key
            key = full
        for table, part in zip(lay.rows, (text, left, right)):
            np.take(table, key, axis=0, out=part[:m], mode="clip")
        left[:m] &= dl[:m]
        right[:m] &= dr[:m]
        text[:m] |= left[:m]
        text[:m] |= right[:m]
        # each row's text from its start, the next row placed over the rest
        end = lay.sizes[1].take(key)
        np.cumsum(end, out=end)
        placed[0] = cells_text[0]
        placed[end[:-1]] = cells_text[1:m]
        yield str(memoryview(out)[:end[-1]], "ascii")


def csv_chunks(values: np.ndarray):
    """Yield the CSV rows of a 2-D float array as text, a chunk of rows at a time."""
    return _chunks(values, _CSV)


def json_chunks(values: np.ndarray, is_int: np.ndarray):
    """Yield the JSON cells of a 2-D float array as text, a chunk of rows at a time.

    ``is_int`` marks the integer columns, whose cells must be integers below
    2^53 in magnitude (or non-finite, printed ``null``).
    """
    return _chunks(values, _JSON, is_int)
