"""Output files: the one module that knows their format.

Every CSV starts with a header row, names state columns ``q1..qK`` and
writes each float as ``.17e``, which round-trips a double exactly (NaN and
infinity as ``nan`` and ``inf``); rows end in ``\\r\\n``, the line end of
Python's ``csv`` module.  A file is a header plus columns, formatted a column
at a time by :func:`write_table`; the writers below turn the library's result
objects into the files the command line documents.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .costdist import CostGrid, TotalCostDistribution
    from .howard import BillDistribution, RelativeCosts, ShadowPriceTable
    from .model import StateSpace

# rows formatted per ``%`` call: bounds the Python objects held at once
CHUNK = 2 ** 14
_LINE_END = "\r\n"
# cell format per numpy dtype kind; ``%.17e`` prints what format(x, ".17e") does
_FORMATS = {"f": "%.17e", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


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


def write_table(path: str | Path, header: Sequence[str],
                columns: Sequence[str | np.ndarray | Sequence]) -> None:
    """Write a CSV of ``header`` plus the rows of ``columns``.

    Each column is either a constant string, repeated on every row, or a
    1-D array (anything ``np.asarray`` takes) holding one cell per row,
    formatted by dtype: float as ``%.17e``, integer and bool as ``%d``,
    string as ``%s``.  All array columns have the same length, the row
    count; at least one column is an array.
    """
    arrays, template = [], []
    for c in columns:
        if isinstance(c, str):
            template.append(_cell(c).replace("%", "%%"))
            continue
        a = np.asarray(c)
        if a.ndim != 1:
            raise ValueError("array columns must be 1-D")
        if a.dtype.kind not in _FORMATS:
            raise TypeError(f"no CSV format for dtype {a.dtype}")
        if a.dtype.kind == "U":
            a = np.array([_cell(s) for s in a.tolist()], dtype=str)
        arrays.append(a)
        template.append(_FORMATS[a.dtype.kind])
    if not arrays:
        raise ValueError("write_table needs at least one array column")
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("array columns must have equal length")
    row = ",".join(template) + _LINE_END
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_cell, header)) + _LINE_END)
        for start in range(0, n, CHUNK):
            part = [a[start:start + CHUNK].tolist() for a in arrays]
            fh.write(row * len(part[0]) % tuple(chain.from_iterable(zip(*part))))


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
