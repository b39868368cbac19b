"""Column-wise CSV writers against the row writer they replaced.

``reference_write`` is ``csv.writer`` with every float formatted by
``format(x, ".17e")``, and the ``reference_*`` functions build each file row
by row as the row writer did.  Every writer in ``losscost.report`` must
produce the same bytes.  The float kernel is also swept on its own: random
bit patterns, every power of two and ten with its neighbours, the first and
last doubles of the decades at each end of its exact range and of the
double range, exact ties, columns of mostly signed zeros, and a hypothesis
property, each against ``format(x, ".17e")``.
"""

import csv
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losscost import report
from losscost.costdist import CostGrid, TotalCostDistribution
from losscost.howard import BillDistribution, RelativeCosts, ShadowPriceTable

CHUNK = report.CHUNK
SHORT = report._SHORT
# around the per-cell cut-off, one chunk and four chunks
LENGTHS = (0, 1, SHORT - 1, SHORT, SHORT + 1, CHUNK - 1, CHUNK, CHUNK + 1,
           4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1)
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308)


def ref_fmt(x):
    return format(float(x), ".17e")


def reference_write(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def state_header(K):
    return [f"q{k + 1}" for k in range(K)]


def reference_relative_costs(path, space, costs):
    reference_write(path, state_header(space.K) + ["v"],
                    (q + [ref_fmt(v)] for q, v in zip(space.occupancy.tolist(), costs.v)))


def reference_shadow_prices(path, space, table):
    def pairs():
        for i in range(len(space)):
            for k in range(space.K):
                if not math.isnan(table.p[i, k]):
                    yield i, k, float(table.p[i, k])

    occupancy = space.occupancy.tolist()
    reference_write(path, state_header(space.K) + ["class", "price"],
                    (occupancy[i] + [k + 1, ref_fmt(p)] for i, k, p in pairs()))


def reference_bill_distribution(path, bills):
    reference_write(path, ["class", "price", "probability"],
                    ([k + 1, ref_fmt(price), ref_fmt(prob)]
                     for k, atoms in enumerate(bills.per_class) for price, prob in atoms))


def reference_cost_grid(path, space, grid):
    t = ref_fmt(grid.horizon)
    reference_write(path, ["t"] + state_header(space.K) + ["r", "probability"],
                    ([t] + q + [r, ref_fmt(grid.mass[i, r])]
                     for i, q in enumerate(space.occupancy.tolist())
                     for r in range(grid.r_max + 1)))


def reference_total_cost(path, t, mass):
    reference_write(path, ["t", "r", "probability", "cumulative"],
                    ([ref_fmt(t), r, ref_fmt(p), ref_fmt(c)]
                     for r, (p, c) in enumerate(zip(mass, np.cumsum(mass)))))


def reference_risk(path, dist):
    reference_write(path, ["t", "mean", "q95", "q99"],
                    [[ref_fmt(dist.t), ref_fmt(dist.mean), dist.q95, dist.q99]])


class Space:
    """What the writers read of a state space: K, occupancy and length."""

    def __init__(self, occupancy):
        self.occupancy = occupancy
        self.K = occupancy.shape[1]

    def __len__(self):
        return len(self.occupancy)


def floats(rng, n):
    """Doubles over many magnitudes, with every special value mixed in."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    special = rng.random(n) < 0.2
    x[special] = rng.choice(SPECIAL, int(special.sum()))
    return x


def same_bytes(tmp_path, write, reference, *args):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new, *args)
    reference(old, *args)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


def test_floats_cover_specials(rng):
    x = floats(rng, 2000)
    assert np.isnan(x).any() and np.isposinf(x).any() and np.isneginf(x).any()
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in x)
    assert 5e-324 in x and 1e308 in x


@pytest.mark.parametrize("n", LENGTHS)
def test_write_table_matches_row_writer(tmp_path, rng, n):
    x, y = floats(rng, n), floats(rng, n)
    i = rng.integers(-2**62, 2**62, n)
    ok = rng.random(n) < 0.5
    names = np.array(["a", "b,c", 'say "x"', "50%", "line\nbreak"])[rng.integers(0, 5, n)]
    header = ["x", "i", "t", "name", "y", "ok", "odd,name"]
    t = ref_fmt(2.5)

    def write(path):
        report.write_table(path, header, [x, i, t, names, y, ok, "100%"])

    def reference(path):
        reference_write(path, header, ([ref_fmt(a), b, t, c, ref_fmt(d), int(e), "100%"]
                                       for a, b, c, d, e in zip(x, i, names, y, ok)))

    data = same_bytes(tmp_path, write, reference)
    assert data.count(b"\r\n") >= n + 1


def test_write_table_rejects_bad_columns(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        report.write_table(path, ["a"], ["only a constant"])
    with pytest.raises(ValueError):
        report.write_table(path, ["a", "b"], [[1.0, 2.0], [1]])
    with pytest.raises(ValueError):
        report.write_table(path, ["a"], [np.zeros((2, 2))])
    with pytest.raises(TypeError):
        report.write_table(path, ["a"], [np.zeros(2, dtype=complex)])


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("n", LENGTHS)
def test_relative_costs_and_shadow_prices(tmp_path, rng, K, n):
    space = Space(rng.integers(0, 40, (n, K)))
    costs = RelativeCosts(v=floats(rng, n), anchor=0, residual=0.0)
    same_bytes(tmp_path, report.write_relative_costs, reference_relative_costs, space, costs)
    p = floats(rng, n * K).reshape(n, K)
    p[rng.random((n, K)) < 0.3] = np.nan
    same_bytes(tmp_path, report.write_shadow_prices, reference_shadow_prices,
               space, ShadowPriceTable(p=p))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_bill_distribution_with_empty_class(tmp_path, rng, K):
    sizes = [0] + [int(s) for s in rng.choice(LENGTHS, K - 1)] if K > 1 else [0]
    per_class = tuple(tuple(zip(floats(rng, s).tolist(), floats(rng, s).tolist())) for s in sizes)
    same_bytes(tmp_path, report.write_bill_distribution, reference_bill_distribution,
               BillDistribution(per_class=per_class))
    full = BillDistribution(per_class=tuple(((1.0, 0.25), (2.0, 0.75)) for _ in range(K)))
    same_bytes(tmp_path, report.write_bill_distribution, reference_bill_distribution, full)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("n", LENGTHS)
def test_cost_grid(tmp_path, rng, K, n):
    # n rows in all: one state with r_max = n - 1, or n states with r_max = 0
    for states, width in ((1, n), (n, 1)):
        if width == 0:
            continue
        space = Space(rng.integers(0, 40, (states, K)))
        grid = CostGrid(mass=floats(rng, states * width).reshape(states, width),
                        horizon=float(rng.choice(SPECIAL[3:] + (2.0, 0.1))), steps=0,
                        r_max=width - 1, leakage=0.0)
        same_bytes(tmp_path, report.write_cost_grid, reference_cost_grid, space, grid)


@pytest.mark.parametrize("n", LENGTHS)
def test_total_cost_and_risk(tmp_path, rng, n):
    mass = floats(rng, n)
    for t in (0.1, 5e-324, 1e308):
        with np.errstate(over="ignore", invalid="ignore"):  # cumsum over ±inf and 1e308
            same_bytes(tmp_path, report.write_total_cost, reference_total_cost, t, mass)
    for mean in SPECIAL:
        dist = TotalCostDistribution(t=7.5, mass=mass, mean=mean,
                                     q95=int(rng.integers(0, 100)), q99=2**40, leakage=0.0)
        same_bytes(tmp_path, report.write_risk, reference_risk, dist)


def column_bytes(tmp_path, column):
    """The body of a one-column CSV, without its header line."""
    path = tmp_path / "column.csv"
    report.write_table(path, ["x"], [column])
    return path.read_bytes().split(b"\r\n", 1)[1]


def reference_column(column, fmt="%.17e"):
    return "".join(fmt % v + "\r\n" for v in np.asarray(column).tolist()).encode()


def near_boundary(v):
    """Whether the exact fraction of |v| scaled to 18 significant digits is
    within the kernel's band, 2**-24, of 0, 1/2 or 1."""
    scaled = Fraction(abs(v)) * Fraction(10) ** (17 - Decimal(abs(v)).adjusted())
    frac = scaled - math.floor(scaled)
    return min(frac, abs(frac - Fraction(1, 2)), 1 - frac) < Fraction(1, 2 ** 24)


@pytest.fixture
def fallback(monkeypatch):
    """The values each write sends to per-cell formatting, in order."""
    seen = []
    cells = report._cells

    def record(a):
        seen.extend(a.tolist())
        return cells(a)

    monkeypatch.setattr(report, "_cells", record)
    return seen


def test_float_kernel_random_bit_patterns(tmp_path, fallback):
    rng = np.random.default_rng(20260)
    x = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert column_bytes(tmp_path, x) == reference_column(x)
    # NaN and infinities fall back, and of the finite cells only those the
    # band leaves uncertified: here integers from 1e18 up whose scaled
    # value is whole, computed just below it
    band = [v for v in fallback if math.isfinite(v)]
    assert len(fallback) - len(band) == np.count_nonzero(~np.isfinite(x)) > 0
    assert band and all(near_boundary(v) for v in band)


def test_float_kernel_powers_and_extremes(tmp_path, fallback):
    tiny, huge = 5e-324, np.finfo(float).max
    powers = [2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    powers += [10.0 ** k for k in range(-323, 309)]
    x = np.array(powers + [tiny, 2.2250738585072009e-308, 2.2250738585072014e-308, huge])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    x = np.concatenate([x, -x, [0.0, -0.0, math.nan, math.inf, -math.inf]])
    assert column_bytes(tmp_path, x) == reference_column(x)
    band = [v for v in fallback if math.isfinite(v)]
    assert all(near_boundary(v) for v in band)
    assert 1e22 in band and -1e18 in band


def test_float_kernel_ties_round_half_even(tmp_path, fallback):
    rng = np.random.default_rng(7)
    # j + i/8 in [1e15, 2**50): 19 significant digits ending in 5, so the
    # 18-digit rounding is a tie; .125/.625 keep an even digit, .375/.875
    # round up from an odd one
    x = rng.integers(10 ** 15, 2 ** 50, 4 * SHORT) + np.tile([0.125, 0.375, 0.625, 0.875], SHORT)
    x = np.append(x, 1125899906842623.875)
    for v in (x[0], x[1], x[-1]):
        digits = str(Decimal(float(v))).replace(".", "")
        assert len(digits) == 19 and digits.endswith("5")
    assert format(1125899906842623.875, ".17e") == "1.12589990684262388e+15"
    assert column_bytes(tmp_path, x) == reference_column(x)
    assert column_bytes(tmp_path, -x) == reference_column(-x)
    assert not fallback


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_kernel_property(xs):
    # repeated to the cut-off so the vector kernel formats the column
    x = np.resize(np.array(xs, dtype=float), SHORT)
    block = report._block(x)
    assert [bytes(row[row != 0]) for row in block] == [b"%.17e" % v for v in x.tolist()]


def test_int_columns(tmp_path, rng):
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    n = SHORT + 44
    cases = [
        lo + rng.integers(0, 8, n),                                   # int64 min, by table
        hi - rng.integers(0, 8, n),                                   # int64 max, by table
        np.concatenate([[lo, hi], rng.integers(lo, hi, n - 2, endpoint=True)]),  # wide range
        np.uint64(2 ** 64 - 1) - rng.integers(0, 5, n).astype(np.uint64),        # above 2**63
        np.uint64(2 ** 63) + rng.integers(0, 2 ** 40, n).astype(np.uint64),      # wide, unsigned
        rng.random(n) < 0.5,                                          # bool
        rng.integers(-3, 3, n).astype(np.int8),
        rng.integers(-100, 101, n).astype(np.int8),                   # a - min overflows int8
        np.arange(n).astype(np.uint8),
        rng.integers(-30000, -29000, n).astype(np.int16),
    ]
    for column in cases:
        assert column_bytes(tmp_path, column) == reference_column(column, "%d")


def test_string_cells_reject_nul(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="NUL"):
        report.write_table(path, ["a", "b"], [np.array(["ok", "a\0b"]), [1.0, 2.0]])
    with pytest.raises(ValueError, match="NUL"):
        report.write_table(path, ["a", "b"], ["x\0", [1.0, 2.0]])


def significant_bits(v):
    """Bits from the highest to the lowest set bit of a double's mantissa."""
    numerator = abs(float(v).as_integer_ratio()[0])
    return (numerator // (numerator & -numerator)).bit_length() if numerator else 0


def test_pow10_table_within_claimed_error():
    hi, lo, high, low = report._POW10.T
    assert len(report._POW10) == len(report._SHIFTS) == 17 + 325 - report._KMIN + 1
    for i, k in enumerate(range(report._KMIN, report._KMIN + len(report._POW10))):
        scaled = Fraction(10) ** k / Fraction(2) ** int(report._SHIFTS[i])
        assert 2 ** 127 <= scaled < 2 ** 128
        pair = Fraction(hi[i]) + Fraction(lo[i])
        assert abs(pair - scaled) <= scaled / 2 ** 106
        # the kernel trusts its product exactly where lo is 0
        assert (lo[i] == 0) == (0 <= k <= 22)
        if lo[i] == 0:
            assert pair == scaled
        # hi's halves: exact, 26 significant bits each at most
        assert high[i] + low[i] == hi[i]
        assert significant_bits(high[i]) <= 26 and significant_bits(low[i]) <= 26


def decade_ends(e10):
    """The smallest and largest double in the decade [10**e10, 10**(e10 + 1))."""
    first, past = Fraction(10) ** e10, Fraction(10) ** (e10 + 1)
    small = float(first)
    if Fraction(small) < first:
        small = float(np.nextafter(small, math.inf))
    large = float(past) if e10 < 308 else math.inf
    if math.isinf(large) or Fraction(large) >= past:
        large = float(np.nextafter(large, 0.0))
    assert first <= Fraction(small) <= Fraction(large) < past
    return small, large


@pytest.mark.parametrize("e10", [18, 17, -5, -6, 308, 307, -307, -308, -323, -324])
def test_float_kernel_decade_ends(tmp_path, fallback, e10):
    # k = 17 - e10: -1 and 0, 22 and 23 on each side of the exact range,
    # and the extreme decades, with each decade's first and last doubles,
    # their neighbours, and doubles drawn across the decade
    rng = np.random.default_rng(e10 + 400)
    small, large = decade_ends(e10)
    ends = []
    for v, inward in ((small, math.inf), (large, 0.0)):
        for _ in range(4):
            ends += [v, -v]
            v = float(np.nextafter(v, inward))
    inside = np.exp(rng.uniform(math.log(small), math.log(large), SHORT))
    x = np.concatenate([ends, inside, -inside])
    x = x[(np.abs(x) >= small) & (np.abs(x) <= large)]
    assert column_bytes(tmp_path, x) == reference_column(x)
    assert all(near_boundary(v) for v in fallback)
    if 0 <= 17 - e10 <= 22:
        assert not fallback


@pytest.mark.parametrize("n", [SHORT - 1, SHORT, SHORT + 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_float_kernel_mostly_zero_columns(tmp_path, rng, fallback, n):
    # zero cells take their constant text by sign, around the kernel's cells
    x = rng.choice([0.0, -0.0], n)
    some = rng.random(n) < 0.2
    x[some] = floats(rng, int(some.sum()))
    x[rng.integers(0, n, 3)] = [math.nan, math.inf, -math.inf]
    assert column_bytes(tmp_path, x) == reference_column(x)
    # a chunk shorter than SHORT goes cell by cell; the kernel's chunks
    # leave only the band to it
    tail = n % CHUNK
    if n >= SHORT and not 0 < tail < SHORT:
        band = [v for v in fallback if math.isfinite(v)]
        assert all(near_boundary(v) for v in band)
    for column in (np.zeros(n), -np.zeros(n), np.where(rng.random(n) < 0.5, -0.0, math.nan)):
        assert column_bytes(tmp_path, column) == reference_column(column)
