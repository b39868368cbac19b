"""Output files: the one module that knows their format.

Every CSV starts with a header row, names state columns ``q1..qK`` and
writes each float as ``.17e``, which round-trips a double exactly (NaN and
infinity as ``nan`` and ``inf``); rows end in ``\\r\\n``, the line end of
Python's ``csv`` module.  A file is a header plus columns, written by
:func:`write_table`; the writers below turn the library's result objects
into the files the command line documents.

:func:`write_table` writes the bytes that ``'%.17e' % x`` and ``'%d' % n``
give cell by cell, but formats a column at a time in numpy.  Each column of
a chunk of rows becomes a NUL-padded uint8 block; the blocks, commas and
line ends are joined into one matrix, written without its NULs.  Integers are
gathered from the texts of their [min, max] range.  Floats go through an
exact ``%.17e`` kernel, :func:`_float_block`: the 18 significant digits come
from a 53 x 128-bit product with a table of powers of ten, rounded half to
even.  The product is exact where the table entry is; elsewhere its error is
below 2**-63 of the last digit, and a cell whose fraction lies within 2**-24
of 0, 1/2 or 1 falls back to ``'%.17e' %``, as do NaN and infinities.
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

# rows formatted per chunk: bounds the temporaries held at once
CHUNK = 2 ** 14
_LINE_END = "\r\n"
# cell format per numpy dtype kind; ``%.17e`` prints what format(x, ".17e") does
_FORMATS = {"f": "%.17e", "i": "%d", "u": "%d", "b": "%d"}
# a column chunk shorter than this is formatted cell by cell: the float
# kernel costs a fixed ~0.3 ms per column, which per-cell formatting
# (about 1 us a float) matches at about this many rows
_SHORT = 256

_M32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
# a fraction this close (in units of 2**-64) to 0, 1/2 or 1 is not
# certified when its power of ten is inexact; see ``_float_block``
_BAND = np.uint64(1 << 40)
_E16, _E17, _E18 = np.uint64(10 ** 16), np.uint64(10 ** 17), np.uint64(10 ** 18)
_E4, _E8 = np.uint64(10 ** 4), np.uint64(10 ** 8)


def _pow10_table(kmin: int, kmax: int):
    """10**k ~ t * 2**b for kmin <= k <= kmax, with t = floor(10**k / 2**b)
    in [2**127, 2**128): t as four arrays of 32-bit limbs, least significant
    first; b; and whether t * 2**b == 10**k (for 0 <= k <= 55)."""
    limbs, shifts, exact = [], [], []
    for k in range(kmin, kmax + 1):
        if k >= 0:
            p = 10 ** k
            b = p.bit_length() - 128
            t = p >> b if b >= 0 else p << -b
            exact.append(b <= 0 or t << b == p)
        else:
            q = 10 ** -k
            b = -(127 + q.bit_length())
            t = (1 << -b) // q
            exact.append(False)
        limbs.append([(t >> (32 * j)) & 0xFFFFFFFF for j in range(4)])
        shifts.append(b)
    return (tuple(np.array(limb, dtype=np.uint64) for limb in zip(*limbs)),
            np.array(shifts, dtype=np.int64), np.array(exact))


# k = 17 - e10 for every decade e10 of a nonzero double, -324..308, and one
# past each end for a decade estimate that is one off
_KMIN = 17 - 309
_LIMBS, _SHIFTS, _EXACT = _pow10_table(_KMIN, 17 + 325)


def _packed(texts: list[bytes], width: int) -> np.ndarray:
    """Byte strings, NUL-padded to ``width``, as little-endian uint32 words."""
    return np.array(texts, dtype=f"S{width}").view("<u4").reshape(len(texts), width // 4)


# the first four bytes of a row from its first two digits (sign byte left
# NUL), every four-digit group, and the exponent for each decade -324..308
_HEADS = _packed([b"\0%d.%d" % divmod(h, 10) for h in range(100)], 4)[:, 0]
_QUADS = _packed([b"%04d" % g for g in range(10 ** 4)], 4)[:, 0]
_EXPONENTS = _packed([b"e%+03d" % e10 for e10 in range(-324, 309)], 8)


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


def _scaled(m: np.ndarray, e: np.ndarray, e10: np.ndarray):
    """m * 2**(e - 53) * 10**(17 - e10) for 53-bit m, with the power of ten
    from the table: the integer part, the first 64 bits of the fraction,
    whether any fraction bit below those is set, and whether the table entry
    was exact (then all of this is exact)."""
    i = 17 - e10 - _KMIN
    t = [limb[i] for limb in _LIMBS]
    # m * t as six 32-bit limbs: column sums of the 32-bit halves of the
    # partial products over m's two limbs and t's four, then the carries
    cols = [[] for _ in range(6)]
    for a, half in enumerate((m & _M32, m >> np.uint64(32))):
        for b in range(4):
            part = half * t[b]
            cols[a + b].append(part & _M32)
            cols[a + b + 1].append(part >> np.uint64(32))
    r, carry = [], np.uint64(0)
    for col in cols:
        acc = sum(col, carry)
        r.append(acc & _M32)
        carry = acc >> np.uint64(32)
    # m * t = value * 2**(96 + s); s is in [20, 31] for values in [1e16, 1e19)
    s = (53 - 96 - e - _SHIFTS[i]).astype(np.uint64)
    up, down = np.uint64(64) - s, np.uint64(32) - s
    whole = (r[5] << up) | (r[4] << down) | (r[3] >> s)
    frac = (r[3] << up) | (r[2] << down) | (r[1] >> s)
    sticky = ((r[1] & ((np.uint64(1) << s) - np.uint64(1))) | r[0]) != 0
    return whole, frac, sticky, _EXACT[i]


def _float_block(x: np.ndarray) -> np.ndarray:
    """``'%.17e' % v`` of each float64, as a (rows, 25) NUL-padded block.

    A finite nonzero |x| is m * 2**(e - 53) with m a 53-bit integer; its 18
    significant digits are D = round(|x| * 10**(17 - e10)), e10 its decade,
    rounded half to even as printf does.  The power of ten is a table entry
    t * 2**b with t = floor(10**k / 2**b) < 2**128, so the product m * t is
    exact and carried in full.  For 0 <= k <= 55 (5**k < 2**128) the entry
    is exact, and so are the integer part, fraction and rounding.  Otherwise
    t is below the true value by less than 1, which puts the product below
    the true scaled value by less than m * 2**(e - 53 + b) =
    (m * t * 2**(e - 53 + b)) / t < 1e18 / 2**127 < 2**-67 units of the last
    digit, and keeping 64 fraction bits adds less than 2**-64: the true
    fraction lies in [F, F + 2**-63), F the computed one.  When F is at
    least 2**-24 from 0, 1/2 and 1 the true value has the same integer part
    and rounds the same way; the rest, with NaN and infinities, go through
    ``'%.17e' %`` (about one in 2**22 cells with an inexact entry).
    """
    ok = np.isfinite(x) & (x != 0)
    y = np.where(ok, np.abs(x), 1.0)
    f, e = np.frexp(y)
    m = np.ldexp(f, 53).astype(np.uint64)
    # log10 is within an ulp, so its floor is the decade or one off; the
    # integer part falls outside [1e17, 1e18) exactly when it is off
    e10 = np.floor(np.log10(y)).astype(np.int64)
    whole, frac, sticky, exact = _scaled(m, e, e10)
    off = (whole >= _E18).astype(np.int64) - (whole < _E17)
    redo = np.flatnonzero(off)
    if len(redo):
        e10[redo] += off[redo]
        for a, b in zip((whole, frac, sticky, exact), _scaled(m[redo], e[redo], e10[redo])):
            a[redo] = b
    # round half to even; a carry to 19 digits moves the decade
    odd = (whole & np.uint64(1)).astype(bool)
    d = whole + ((frac > _HALF) | ((frac == _HALF) & (sticky | odd)))
    carry = d == _E18
    d[carry] = _E17
    e10 += carry
    uncertain = ~exact & ((frac < _BAND) | (frac > ~_BAND)
                          | ((frac > _HALF - _BAND) & (frac < _HALF + _BAND)))
    slow = ~np.isfinite(x) | (ok & (uncertain | (whole < _E17) | (whole >= _E18)))
    # zeros, and the cells left to '%.17e' %, print as 0.00000000000000000e+00
    fast = ok & ~slow
    d *= fast
    e10 *= fast

    # a row is seven uint32 words: sign, digit, point, digit; four groups of
    # four digits; "e", the exponent's sign and its two or three digits
    head = d // _E16
    eight = (d - head * _E16)[:, None] // np.array([_E8, np.uint64(1)])
    eight[:, 1] -= eight[:, 0] * _E8
    four = eight // _E4
    words = np.empty((len(x), 7), dtype="<u4")
    words[:, 0] = _HEADS[head] | np.signbit(x) * np.uint32(ord("-"))
    words[:, 1:5] = _QUADS[np.stack([four, eight - four * _E4], axis=2).reshape(-1, 4)]
    words[:, 5:7] = _EXPONENTS[e10 + 324]
    out = words.view(np.uint8)[:, :25]

    slow = np.flatnonzero(slow)
    if len(slow):
        cells = _cells(x[slow])
        out[slow] = 0
        out[slow, :cells.shape[1]] = cells
    return out


def _int_block(a: np.ndarray) -> np.ndarray:
    """``'%d' % v`` of each integer, as a NUL-padded block: gathered from the
    texts of [min, max] when that range is no wider than the column."""
    lo, hi = int(a.min()), int(a.max())
    if hi - lo >= len(a):
        return _cells(a)
    table = _texts([b"%d" % v for v in range(lo, hi + 1)])
    # a - lo in [0, len(a)), taken modulo 2**64 so no dtype overflows
    return table[(a.astype(np.uint64) - np.uint64(lo % 2 ** 64)).astype(np.intp)]


def _block(a: np.ndarray) -> np.ndarray:
    """The cells of a 1-D column as a NUL-padded uint8 block, one row each."""
    kind = a.dtype.kind
    if kind == "U":
        return _texts([_text_cell(s).encode() for s in a.tolist()])
    if len(a) < _SHORT:
        return _cells(a)
    if kind == "f":
        return _float_block(a.astype(np.float64, copy=False))
    return _int_block(a.view(np.uint8) if kind == "b" else a)


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
    without its NULs.
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
    with open(path, "wb") as fh:
        fh.write((",".join(map(_cell, header)) + _LINE_END).encode())
        for start in range(0, n, CHUNK):
            rows = min(CHUNK, n - start)
            blocks = [np.broadcast_to(np.frombuffer(part, dtype=np.uint8), (rows, len(part)))
                      if isinstance(part, bytes) else _block(part[start:start + CHUNK])
                      for part in layout]
            text = np.concatenate(blocks, axis=1)
            fh.write(text[text != 0].tobytes())


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
