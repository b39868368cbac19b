"""Output files: the one module that knows their format.

Every CSV starts with a header row, names state columns ``q1..qK`` and
writes each float as ``.17e``, which round-trips a double exactly (NaN and
infinity as ``nan`` and ``inf``).  A file is a header plus an iterable of
rows; the writers below turn the library's result objects into the files
the command line documents.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .costdist import CostGrid, TotalCostDistribution
    from .howard import BillDistribution, RelativeCosts, ShadowPriceTable
    from .model import StateSpace


def fmt(x: float) -> str:
    return format(float(x), ".17e")


def state_header(K: int) -> list[str]:
    return [f"q{k + 1}" for k in range(K)]


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_relative_costs(path: str | Path, space: StateSpace, costs: RelativeCosts) -> None:
    write_csv(path, state_header(space.K) + ["v"],
              (q + [fmt(v)] for q, v in zip(space.occupancy.tolist(), costs.v)))


def write_shadow_prices(path: str | Path, space: StateSpace, table: ShadowPriceTable) -> None:
    occupancy = space.occupancy.tolist()
    write_csv(path, state_header(space.K) + ["class", "price"],
              (occupancy[i] + [k + 1, fmt(p)] for i, k, p in table.pairs(space)))


def write_bill_distribution(path: str | Path, bills: BillDistribution) -> None:
    write_csv(path, ["class", "price", "probability"],
              ([k + 1, fmt(price), fmt(prob)]
               for k, atoms in enumerate(bills.per_class) for price, prob in atoms))


def write_cost_grid(path: str | Path, space: StateSpace, grid: CostGrid) -> None:
    t = fmt(grid.horizon)
    write_csv(path, ["t"] + state_header(space.K) + ["r", "probability"],
              ([t] + q + [r, fmt(grid.mass[i, r])]
               for i, q in enumerate(space.occupancy.tolist()) for r in range(grid.r_max + 1)))


def write_total_cost(path: str | Path, t: float, mass: np.ndarray) -> None:
    write_csv(path, ["t", "r", "probability", "cumulative"],
              ([fmt(t), r, fmt(p), fmt(c)] for r, (p, c) in enumerate(zip(mass, np.cumsum(mass)))))


def write_risk(path: str | Path, dist: TotalCostDistribution) -> None:
    write_csv(path, ["t", "mean", "q95", "q99"],
              [[fmt(dist.t), fmt(dist.mean), dist.q95, dist.q99]])
