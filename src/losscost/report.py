"""Output files: the one module that formats and writes them.

Every CSV starts with a header row, names state columns ``q1..qK`` and
writes each float as ``.17e``, which round-trips a double exactly (NaN and
infinity as ``nan`` and ``inf``); rows end in ``\\r\\n``, the line end of
Python's ``csv`` module.  A file is a header plus columns, written by
:func:`write_table`.  The writers below turn the library's result objects
(relative costs, prices, bills, cost laws) into their files; the command
line passes the header and columns of its other files, the stationary,
residual and simulation tables, to :func:`write_table` itself.

:func:`write_table` writes the bytes that ``'%.17e' % x`` and ``'%d' % n``
give cell by cell, but formats a column at a time in numpy.  Each column of
a chunk of rows becomes a NUL-padded uint8 block; the blocks are copied
between the constant text (commas, line ends) into one matrix, a row slot
per block, and the matrix is written without its NULs.  An integer column
whose [min, max] range is no wider than the column is gathered once from
the texts of that range.  Floats go through a ``%.17e`` kernel,
:func:`_float_block`, that only sees the finite nonzero cells; a zero is a
constant text and its sign.  The 18 significant digits come from a
double-double product with a table of powers of ten, rounded half to even.
The product is exact for 10**k with 0 <= k <= 22; elsewhere its error is
below 2**-44 of the last digit, and a cell whose fraction lies within
2**-24 of 0, 1/2 or 1 falls back to ``'%.17e' %``, as do NaN and infinities.
The digit and exponent texts are gathered from tables as whole words.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .costdist import CostGrid, TotalCostDistribution
    from .howard import BillDistribution, RelativeCosts, ShadowPriceTable
    from .model import StateSpace

# rows formatted per chunk: bounds the temporaries held at once, which at
# 2**12 rows (32 KB per float64 temporary) stay in cache
CHUNK = 2 ** 12
_LINE_END = "\r\n"
# cell format per numpy dtype kind; ``%.17e`` prints what format(x, ".17e") does
_FORMATS = {"f": "%.17e", "i": "%d", "u": "%d", "b": "%d"}
# a column chunk shorter than this is formatted cell by cell, at about
# 0.8 us a float; the float kernel costs a fixed ~50 us per chunk and is
# the cheaper from about 64 rows, so this cut-off errs on the safe side
_SHORT = 256

# Dekker's splitting constant: 2**27 + 1 times a double splits it into two
# halves of at most 26 significant bits each
_SPLIT = 2.0 ** 27 + 1
# a fraction this close to 0, 1/2 or 1 is not certified when its power of
# ten is inexact; see ``_float_block``
_BAND = 2.0 ** -24


def _split(a: np.ndarray):
    """a as high + low halves, each with at most 26 significant bits
    (Dekker), so that the product of two halves is exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10_table(kmin: int, kmax: int):
    """10**k ~ (hi + lo) * 2**b for kmin <= k <= kmax, from t =
    floor(10**k / 2**b) in [2**127, 2**128): hi = float(t) and lo =
    float(t - hi), so hi + lo is within 2**-106 of 10**k / 2**b, relatively,
    and lo = 0 with the pair exact for 0 <= k <= 22 (5**k < 2**53).
    Returns rows (hi, lo, hi's two halves) and the shifts b."""
    hi, lo, shifts = [], [], []
    for k in range(kmin, kmax + 1):
        if k >= 0:
            p = 10 ** k
            b = p.bit_length() - 128
            t = p >> b if b >= 0 else p << -b
        else:
            q = 10 ** -k
            b = -(127 + q.bit_length())
            t = (1 << -b) // q
        h = float(t)
        hi.append(h)
        lo.append(float(t - int(h)))
        shifts.append(b)
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)], axis=1), np.array(shifts, dtype=np.int32)


# k = 17 - e10 for every decade e10 of a nonzero double, -324..308, and one
# past each end for a decade estimate that is one off
_KMIN = 17 - 309
_POW10, _SHIFTS = _pow10_table(_KMIN, 17 + 325)


def _words(texts: list[bytes]) -> np.ndarray:
    """Byte strings of at most 8 bytes, NUL-padded, as little-endian uint64."""
    return np.array(texts, dtype="S8").view("<u8")


# a row is four little-endian uint64 words, so that text order is byte
# order on any host: the sign byte (NUL for +) and the first two digits
# with the point, placed after four NULs; two words of eight digits,
# gathered as four-digit groups; the exponent, for each decade -324..308
_HEADS = _words([b"\0\0\0\0\0%d.%d" % divmod(h, 10) for h in range(100)])
_QUADS = np.array([b"%04d" % g for g in range(10 ** 4)], dtype="S4").view("<u4")
_EXPONENTS = _words([b"e%+03d" % e10 for e10 in range(-324, 309)])
_ZERO_ROW = _words([b"\0\0\0\0\0" b"0.0", b"00000000", b"00000000", b"e+00"])
_MINUS = np.uint64(ord("-") << 32)


def fmt(x: float) -> str:
    return format(float(x), ".17e")


def state_header(K: int) -> list[str]:
    return [f"q{k + 1}" for k in range(K)]


def _cell(text: str) -> str:
    """A string cell quoted as ``csv.writer`` quotes it by default: only when
    it holds a comma, a quote or a line break, with quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_cell(text: str) -> str:
    # NUL pads the byte blocks and is dropped from them; refuse it in a cell
    if "\0" in text:
        raise ValueError(f"CSV cell {text!r} holds a NUL character")
    return _cell(text)


def _texts(cells: list[bytes]) -> np.ndarray:
    """The cells as the rows of a NUL-padded uint8 block."""
    a = np.array(cells, dtype=bytes)
    return a.view(np.uint8).reshape(len(cells), a.itemsize)


def _cells(a: np.ndarray) -> np.ndarray:
    """The block of a numeric column formatted cell by cell with ``%``."""
    fmt = _FORMATS[a.dtype.kind].encode()
    return _texts([fmt % v for v in a.tolist()])


def _scaled(f: np.ndarray, e: np.ndarray, e10: np.ndarray):
    """D = f * 2**e * 10**(17 - e10) rounded half to even, for doubles f in
    [1/2, 1), with the power of ten from the table: D as int64, the
    remainder (the scaled value minus D, in [-1/2, 1/2]), and whether the
    table entry was inexact (lo != 0)."""
    i = (17 - _KMIN) - e10
    hi, lo, hh, hl = np.take(_POW10, i, axis=0).T
    # f * hi = top + err exactly (Dekker's product), plus f * lo
    top = f * hi
    fh, fl = _split(f)
    err = ((fh * hh - top) + fh * hl + fl * hh) + fl * hl + f * lo
    # renormalise: err is below an ulp of top, so top + err rounds to a
    # whole number (its ulp is at least 2 once scaled) and ``low`` is the
    # exact remainder; the power-of-two scaling is exact too.  The whole
    # part is even, so rounding low half to even rounds the sum so.
    s = e + _SHIFTS[i]
    whole = top + err
    low = np.ldexp(err - (whole - top), s)
    near = np.rint(low)
    return np.ldexp(whole, s).astype(np.int64) + near.astype(np.int64), low - near, lo != 0


def _digit_words(y: np.ndarray):
    """The row words of ``'%.17e' % v`` for each finite positive double v in
    ``y``, and which rows the kernel left uncertified."""
    f, e = np.frexp(y)
    # log10 is within an ulp, so its floor is the decade or one off; the
    # integer part of the scaled value (D, less one where D was rounded up)
    # falls outside [1e17, 1e18) exactly when it is off.  That needs D
    # outside (1e17, 1e18]: D = 1e18 is right in either case, as a carry or
    # as 1e18 at one decade too low, which rounds to 1e17 at the right one.
    e10 = np.floor(np.log10(y)).astype(np.int64)
    d, r, inexact = _scaled(f, e, e10)
    check = np.flatnonzero((d - (10 ** 17 + 1)).view(np.uint64) >= np.uint64(9 * 10 ** 17))
    if len(check):
        whole = d[check] - (r[check] < 0)
        off = (whole >= 10 ** 18).astype(np.int64) - (whole < 10 ** 17)
        redo = check[off != 0]
        e10[redo] += off[off != 0]
        d[redo], r[redo], inexact[redo] = _scaled(f[redo], e[redo], e10[redo])
        # a decade still off, which a log10 within an ulp never gives, is
        # left to '%.17e' % with in-range indices
        lost = redo[(d[redo] - (r[redo] < 0) - 10 ** 17).view(np.uint64) >= np.uint64(9 * 10 ** 17)]
        d[lost], r[lost], inexact[lost], e10[lost] = 10 ** 17, 0.0, True, 0
    # the product is exact where lo = 0; elsewhere a fraction within the
    # band of 0, 1/2 or 1 (a remainder near 0 or +-1/2) is not certified
    slow = inexact & (abs(abs(r) - 0.25) > 0.25 - _BAND)
    # a carry to 19 digits moves the decade
    carry = d == 10 ** 18
    d[carry] = 10 ** 17
    e10 += carry

    # the first two digits, then four groups of four, one row each
    groups = np.empty((5, len(d)), dtype=np.int64)
    for j, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(d, scale, out=groups[j])
    groups[4] = d
    groups[1:] -= groups[:-1] * 10 ** 4
    words = np.empty((len(d), 4), dtype="<u8")
    words[:, 0] = _HEADS[groups[0]]
    words.view("<u4")[:, 2:6].T[...] = _QUADS[groups[1:]]
    words[:, 3] = _EXPONENTS[e10 + 324]
    return words, slow


def _float_block(x: np.ndarray) -> np.ndarray:
    """``'%.17e' % v`` of each float64, as a (rows, 25) NUL-padded block.

    Only the finite nonzero cells enter the kernel; a zero row is the
    constant text of 0.0, and every row gets its sign from the sign bit.
    A finite nonzero |x| is f * 2**e with f in [1/2, 1); its 18 significant
    digits are D = round(|x| * 10**k), k = 17 - e10 for its decade e10,
    rounded half to even as printf does.  10**k is a table entry
    (hi + lo) * 2**b: f * hi is carried exactly as a double-double
    (Dekker's product), f * lo is added, and the sum, scaled by 2**(e + b),
    is renormalised to a whole number plus an exact remainder.  For
    0 <= k <= 22, lo = 0 and all of it is exact, ties included.  Elsewhere
    the entry is within 2**-106 of 10**k / 2**b, relatively, f * lo is
    rounded by at most 2**-106 and adding it by at most 2**-105 of the
    product: the scaled value, below 2**60, is within 2**-104 of the true
    one, relatively, so within 2**-44 in units of the last digit.  When its
    fraction is at least 2**-24 from 0, 1/2 and 1 the true value has the
    same integer part and rounds the same way; the rest, with NaN and
    infinities, go through ``'%.17e' %`` (about one in 2**22 cells with an
    inexact entry).

    A row is four uint64 words, of which bytes 4..28 are the text: the
    sign and first two digits with the point, four groups of four digits,
    and the exponent, each gathered from a table of its texts, the
    exponent as one word per row.
    """
    y = np.abs(x)
    finite = np.isfinite(x)
    if finite.all() and y.min() > 0:
        words, slow = _digit_words(y)
    else:
        rows = np.flatnonzero(finite & (x != 0))
        words = np.empty((len(x), 4), dtype="<u8")
        kernel_words, kernel_slow = _digit_words(y[rows])
        # rows placed as single 32-byte items, far faster than 2-D rows
        items = words.view("V32")[:, 0]
        np.put(items, rows, kernel_words.view("V32")[:, 0])
        np.put(items, np.flatnonzero(x == 0), _ZERO_ROW.view("V32"))
        slow = ~finite
        slow[rows[kernel_slow]] = True
    words[:, 0] |= np.signbit(x) * _MINUS
    out = words.view(np.uint8)[:, 4:29]

    slow = np.flatnonzero(slow)
    if len(slow):
        cells = _cells(x[slow])
        out[slow] = 0
        out[slow, :cells.shape[1]] = cells
    return out


def _int_texts(a: np.ndarray, suffix: bytes = b"") -> np.ndarray | None:
    """``'%d' % v`` of each integer followed by ``suffix``, as a NUL-padded
    block gathered from the texts of [min, max]; None when that range is
    wider than the column."""
    if a.dtype.kind == "b":
        a = a.view(np.uint8)
    lo, hi = int(a.min()), int(a.max())
    if hi - lo >= len(a):
        return None
    table = _texts([b"%d%s" % (v, suffix) for v in range(lo, hi + 1)])
    # a - lo in [0, len(a)), taken modulo 2**64 so no dtype overflows
    return np.take(table, (a.astype(np.uint64) - np.uint64(lo % 2 ** 64)).astype(np.intp), axis=0)


def _block(a: np.ndarray) -> np.ndarray:
    """The cells of a 1-D column as a NUL-padded uint8 block, one row each."""
    kind = a.dtype.kind
    if kind == "U":
        return _texts([_text_cell(s).encode() for s in a.tolist()])
    if kind == "f" and len(a) >= _SHORT:
        return _float_block(a.astype(np.float64, copy=False))
    return _cells(a)


def _put(text: np.ndarray, start: int, block: np.ndarray) -> int:
    """Copy ``block`` (rows, or one row for all) into the columns of ``text``
    from ``start``, each row as one item; return the end column."""
    width = block.shape[-1]
    item = f"V{width}"
    text[:, start:start + width].view(item)[...] = block.view(item)
    return start + width


def write_table(path: str | Path, header: Sequence[str],
                columns: Sequence[str | np.ndarray | Sequence]) -> None:
    """Write a CSV of ``header`` plus the rows of ``columns``, in UTF-8.

    Each column is either a constant string, repeated on every row, or a
    1-D array (anything ``np.asarray`` takes) holding one cell per row,
    formatted by dtype: float as ``%.17e``, integer and bool as ``%d``,
    string as ``%s``.  All array columns have the same length, the row
    count; at least one column is an array.  A string cell may not hold NUL.

    A chunk of rows is one uint8 matrix: each array column becomes a
    NUL-padded block of its cells' bytes, set between the constant text
    (commas, constant columns, the line end), and the matrix is written
    without its NULs.  An integer column of small range is formatted whole,
    with the constant text after it, up front, and sliced per chunk.
    """
    layout, literal = [], ""
    for c in columns:
        if isinstance(c, str):
            literal += _text_cell(c) + ","
            continue
        a = np.asarray(c)
        if a.ndim != 1:
            raise ValueError("array columns must be 1-D")
        if a.dtype.kind not in _FORMATS and a.dtype.kind != "U":
            raise TypeError(f"no CSV format for dtype {a.dtype}")
        if literal:
            layout.append(literal.encode())
        layout.append(a)
        literal = ","
    lengths = {len(part) for part in layout if not isinstance(part, bytes)}
    if not lengths:
        raise ValueError("write_table needs at least one array column")
    if len(lengths) > 1:
        raise ValueError("array columns must have equal length")
    n = lengths.pop()
    layout.append((literal[:-1] + _LINE_END).encode())
    # an integer column of small range becomes its 2-D block, which takes in
    # the constant text after it (every array column has some)
    for i, part in enumerate(layout):
        if n >= _SHORT and not isinstance(part, bytes) and part.dtype.kind in "iub":
            texts = _int_texts(part, layout[i + 1])
            if texts is not None:
                layout[i:i + 2] = texts, b""
    layout = [part for part in layout if len(part)]
    with open(path, "wb") as fh:
        fh.write((",".join(map(_cell, header)) + _LINE_END).encode())
        for start in range(0, n, CHUNK):
            rows = min(CHUNK, n - start)
            blocks = [np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes)
                      else part[start:start + CHUNK] if part.ndim == 2
                      else _block(part[start:start + CHUNK]) for part in layout]
            text = np.empty((rows, sum(b.shape[-1] for b in blocks)), dtype=np.uint8)
            end = 0
            for b in blocks:
                end = _put(text, end, b)
            fh.write(text.tobytes().translate(None, b"\0"))


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_relative_costs(path: str | Path, space: StateSpace, costs: RelativeCosts) -> None:
    write_table(path, state_header(space.K) + ["v"], [*space.occupancy.T, costs.v])


def write_shadow_prices(path: str | Path, space: StateSpace, table: ShadowPriceTable) -> None:
    # row-major (state, class) order over the admitted pairs
    i, k = np.nonzero(~np.isnan(table.p))
    write_table(path, state_header(space.K) + ["class", "price"],
                [*space.occupancy[i].T, k + 1, table.p[i, k]])


def write_bill_distribution(path: str | Path, bills: BillDistribution) -> None:
    per_class = bills.per_class
    atoms = np.array([pair for pairs in per_class for pair in pairs], dtype=float).reshape(-1, 2)
    classes = np.repeat(np.arange(1, len(per_class) + 1), [len(a) for a in per_class])
    write_table(path, ["class", "price", "probability"], [classes, *atoms.T])


def write_cost_grid(path: str | Path, space: StateSpace, grid: CostGrid) -> None:
    width = grid.r_max + 1
    write_table(path, ["t"] + state_header(space.K) + ["r", "probability"],
                [fmt(grid.horizon), *np.repeat(space.occupancy, width, axis=0).T,
                 np.tile(np.arange(width), len(space)), grid.mass.ravel()])


def write_total_cost(path: str | Path, t: float, mass: np.ndarray) -> None:
    write_table(path, ["t", "r", "probability", "cumulative"],
                [fmt(t), np.arange(len(mass)), mass, np.cumsum(mass)])


def write_risk(path: str | Path, dist: TotalCostDistribution) -> None:
    write_table(path, ["t", "mean", "q95", "q99"],
                [fmt(dist.t), [dist.mean], [dist.q95], [dist.q99]])
