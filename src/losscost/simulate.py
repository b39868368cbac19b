"""Discrete-event Monte Carlo oracle for the loss system.

Competing exponential clocks: class-j arrivals fire at rate lam_j regardless
of the state (a blocked arrival adds omega_j to the running cost and leaves
the occupancy alone), departures fire at rate mu_j q_j.  Each replication
draws from its own counter-based stream, a Philox generator keyed by
(seed, replication index), so results are bit-identical however many
replications run and however they are scheduled.

The simulator builds per-state event tables once (cumulative rates, next
state and charge per event), then walks each replication over them in a
plain Python loop.  Uniforms come in blocks of ``2 * BLOCK``: holding times
are exponentials by inversion, -log(1 - u) / rate, and the event is found by
bisection on the state's cumulative rates.  The walk records only the path
(states, events, jump times); occupancy, costs, arrival counts, bills and
batch costs are then computed from the path with array operations.
Per-replication occupancy is folded into running per-state means and sums
of squares (Welford), so memory is O(states + one path).

Also contains a direct sampler for the simple charging scheme (stationary
state, then frozen compound-Poisson charges), which is the Monte Carlo
counterpart of the closed-form cost law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelError, StateSpace, TrafficClass, _charging, _check_horizon, stationary
from .howard import ShadowPriceTable, _merge_atoms

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate",
    "simulate_simple_total_costs",
    "empirical_total_cost_hist",
    "empirical_quantile",
    "empirical_bill_hist",
    "batch_means_se",
]

# events per block of uniforms: one block draws 2 * BLOCK, a holding time
# and an event choice per event
BLOCK = 256
# equal windows of (warmup, horizon] for the single-run batch-means error
BATCHES = 32


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: horizon per replication, count, seed, options.

    ``warmup`` time is discarded from occupancy (and rate) estimates only;
    cost accumulation always starts at time zero from the empty state.
    ``seed`` is the first half of each replication's 128-bit Philox key, so
    it must lie in [0, 2**64).
    """

    horizon: float
    replications: int = 1
    seed: int = 0
    record_bills: bool = False
    warmup: float = 0.0

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        if self.replications < 1:
            raise ModelError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.warmup < self.horizon:
            raise ModelError("warmup must lie in [0, horizon)")
        _check_seed(self.seed)


@dataclass
class SimResult:
    """Aggregated replication output.

    ``total_cost_samples[i]`` is the integer blocking cost accumulated in
    replication i over [0, horizon] and ``final_states[i]`` the state index
    occupied at the horizon.  ``occupancy`` is the time-average state
    distribution past warmup, averaged over replications, with
    ``occupancy_se`` the replication-based standard error per state (NaN for
    a single replication, where the pooled value is the only estimate);
    ``arrival_occupancy`` the state distribution seen by arriving calls
    (for the time-average comparison).  ``bill_samples[k]`` holds the shadow
    prices charged to admitted class-k arrivals past warmup when bills were
    recorded, and ``bill_reps[k]`` the replication index of each bill so that
    per-replication statistics (independent across replications) can be
    formed.  ``events`` counts every simulated event (arrivals, blocked or
    not, and departures) over all replications.
    """

    config: SimConfig
    total_cost_samples: np.ndarray
    final_states: np.ndarray
    occupancy: np.ndarray
    occupancy_se: np.ndarray
    arrival_occupancy: np.ndarray
    bill_samples: list[np.ndarray]
    bill_reps: list[np.ndarray]
    cost_rate: float
    cost_rate_se: float
    events: int

    def mean_cost(self) -> float:
        return float(self.total_cost_samples.mean())

    def mean_cost_se(self) -> float:
        n = len(self.total_cost_samples)
        if n < 2:
            return math.nan
        return float(self.total_cost_samples.std(ddof=1) / math.sqrt(n))


def _check_seed(seed: int) -> None:
    # numpy would wrap a negative key modulo 2**64 without a word
    if not 0 <= seed < 2**64:
        raise ModelError(f"seed must lie in [0, 2**64), got {seed}")


def _rng_for(seed: int, rep: int) -> np.random.Generator:
    # Philox is counter based: the key (seed, rep) pins the whole stream
    return np.random.Generator(np.random.Philox(key=[seed, rep]))


def batch_means_se(values: np.ndarray, batches: int = 32) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2 * batches:
        batches = max(2, len(values) // 2)
    usable = (len(values) // batches) * batches
    if usable < 2 * batches:
        return math.nan
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


@dataclass(frozen=True)
class _EventTables:
    """Per-state event tables; event e < K is a class-e arrival, event K + j
    a class-j departure.  The walk reads the Python lists, the bookkeeping
    the arrays."""

    cum: list[list[float]]   # cumulative event rates of each state
    total: list[float]       # total event rate of each state
    nxt: list[list[int]]     # state after each event (a blocked arrival stays)
    charge: np.ndarray       # (states, 2K) int64: omega_j for a blocked arrival
    admitted: np.ndarray     # (states, 2K) bool: an admitted arrival


def _event_tables(space: StateSpace, classes: Sequence[TrafficClass]) -> _EventTables:
    n, K = len(space), space.K
    lam = np.array([c.lam for c in classes], dtype=float)
    mu = np.array([c.mu for c in classes], dtype=float)
    omega = np.array([c.omega for c in classes], dtype=np.int64)
    rates = np.hstack([np.broadcast_to(lam, (n, K)), mu * space.occupancy])
    nxt = np.hstack([np.where(space.admissible, space.up, np.arange(n)[:, None]), space.down])
    # a zero-rate event is never drawn, so only events that can fire need a
    # successor; this check stands in for one on every simulated event
    missing = np.argwhere((rates > 0) & (nxt < 0))
    if len(missing):
        i, e = missing[0]
        event = f"class-{e + 1} arrival" if e < K else f"class-{e - K + 1} departure"
        raise ModelError(f"a {event} from state {space.occupancy[i].tolist()} leads to no state of the space")
    cum = np.cumsum(rates, axis=1)
    departures = np.zeros((n, K), dtype=np.int64)
    return _EventTables(
        cum=cum.tolist(),
        total=cum[:, -1].tolist(),
        nxt=nxt.tolist(),
        charge=np.hstack([np.where(space.admissible, 0, omega), departures]),
        admitted=np.hstack([space.admissible, departures.astype(bool)]),
    )


def _walk(tables: _EventTables, rng: np.random.Generator, horizon: float):
    """One replication from the empty state over [0, horizon].

    Returns the path as lists: ``states`` (the empty state, then the state
    after each event), ``events`` (the event fired from ``states[k]`` at
    ``times[k + 1]``) and ``times`` (0, the jump times, then the horizon).
    """
    cum, total, nxt = tables.cum, tables.total, tables.nxt
    states, events, times = [0], [], [0.0]
    s, now, pos = 0, 0.0, BLOCK
    holds = picks = ()
    while True:
        rate = total[s]
        if rate == 0.0:
            break
        if pos == BLOCK:
            u = rng.random(2 * BLOCK)
            holds = (-np.log1p(-u[:BLOCK])).tolist()
            picks = u[BLOCK:].tolist()
            pos = 0
        now += holds[pos] / rate
        if now >= horizon:
            break
        # u * rate < rate, and a zero-rate column repeats its left neighbour's
        # cumulative rate, so bisect_right never lands on it
        e = bisect_right(cum[s], picks[pos] * rate)
        pos += 1
        s = nxt[s][e]
        states.append(s)
        events.append(e)
        times.append(now)
    times.append(horizon)
    return states, events, times


def simulate(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    config: SimConfig,
    prices: ShadowPriceTable | None = None,
) -> SimResult:
    """Run the loss system and accumulate blocking costs (and bills).

    Deterministic given (model, config): replication i uses the Philox
    stream keyed by (seed, i), independent of the replication count.  Each
    replication is one walk over per-state event tables, holding times
    drawn by inversion from blocks of uniforms; its path is then reduced
    with array operations, and per-state occupancy is merged across
    replications by Welford's update, so memory is O(states + one path).
    For a single replication ``cost_rate_se`` comes from batch means over
    32 equal windows of (warmup, horizon].  ``prices`` must be supplied when
    ``record_bills`` is set.
    """
    classes = tuple(classes)
    if config.record_bills and prices is None:
        raise ModelError("record_bills requires a shadow price table")
    tables = _event_tables(space, classes)
    K, n, R = space.K, len(space), config.replications
    H, W = config.horizon, config.warmup

    total_costs = np.zeros(R, dtype=np.int64)
    final_states = np.zeros(R, dtype=np.int64)
    occ_mean = np.zeros(n)
    occ_m2 = np.zeros(n)
    arrival_counts = np.zeros(n, dtype=np.int64)
    # bills in replication order: class, price, and the count per replication
    bill_class, bill_price = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    bill_count = np.zeros(R, dtype=np.int64)
    batch_costs = np.zeros(BATCHES)
    events = 0

    for rep in range(R):
        states, event_list, time_list = _walk(tables, _rng_for(config.seed, rep), H)
        path = np.array(states)
        times = np.array(time_list)
        src = path[:-1]                   # the state each event fires from
        ev = np.array(event_list, dtype=np.intp)
        at = times[1:-1]                  # the time each event fires
        charged = tables.charge[src, ev]
        total_costs[rep] = charged.sum()
        final_states[rep] = states[-1]
        events += len(ev)

        frac = np.bincount(path, weights=np.diff(np.clip(times, W, H)), minlength=n) / (H - W)
        delta = frac - occ_mean
        occ_mean += delta / (rep + 1)
        occ_m2 += delta * (frac - occ_mean)

        seen = at >= W
        arrival_counts += np.bincount(src[seen & (ev < K)], minlength=n)
        if config.record_bills:
            billed = seen & tables.admitted[src, ev]
            bill_class.append(ev[billed])
            bill_price.append(prices.p[src[billed], ev[billed]])
            bill_count[rep] = len(bill_class[-1])
        if R == 1:
            post = at > W
            window = np.minimum(((at[post] - W) * (BATCHES / (H - W))).astype(np.intp), BATCHES - 1)
            batch_costs += np.bincount(window, weights=charged[post], minlength=BATCHES)

    occupancy_se = np.sqrt(occ_m2 / (R - 1) / R) if R > 1 else np.full(n, math.nan)
    arr_total = arrival_counts.sum()
    arrival_occ = arrival_counts / arr_total if arr_total > 0 else arrival_counts.astype(float)

    cost_rate = float(total_costs.sum()) / (R * H)
    if R > 1:
        per_rep = total_costs / H
        se = float(per_rep.std(ddof=1) / math.sqrt(R))
    else:
        se = batch_means_se(batch_costs / ((H - W) / BATCHES))

    bill_class, bill_price = np.concatenate(bill_class), np.concatenate(bill_price)
    bill_rep = np.repeat(np.arange(R, dtype=np.int64), bill_count)

    return SimResult(
        config=config,
        total_cost_samples=total_costs,
        final_states=final_states,
        occupancy=occ_mean,
        occupancy_se=occupancy_se,
        arrival_occupancy=arrival_occ,
        bill_samples=[bill_price[bill_class == k] for k in range(K)],
        bill_reps=[bill_rep[bill_class == k] for k in range(K)],
        cost_rate=cost_rate,
        cost_rate_se=se,
        events=events,
    )


def simulate_simple_total_costs(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    t: float,
    replications: int,
    seed: int = 0,
) -> np.ndarray:
    """Sample total accumulated cost under the simple charging scheme.

    Each replication draws a stationary state and then, with that state's
    admission set frozen, Poisson counts of charging arrivals over [0, t]:
    cost = sum_j omega_j N_j over blocked classes.  This is the exact
    sampling counterpart of the closed-form cost law.
    """
    classes = tuple(classes)
    _check_seed(seed)
    dist = stationary(space, classes)
    rng = _rng_for(seed, 0)
    states = rng.choice(len(space), size=replications, p=dist.pi)
    costs = np.zeros(replications, dtype=np.int64)
    # replications grouped by state once (stable, so in position order); the
    # Poisson counts are drawn by ascending state, then class, an order the
    # samples of a seed depend on
    by_state = np.argsort(states, kind="stable")
    counts = np.bincount(states, minlength=len(space))
    ends = np.cumsum(counts)
    _, _, charging = _charging(space, classes)
    for i in np.flatnonzero(charging.any(axis=1) & (counts > 0)):
        rows = by_state[ends[i] - counts[i]:ends[i]]
        for j in np.flatnonzero(charging[i]):
            costs[rows] += classes[j].omega * rng.poisson(t * classes[j].lam, size=counts[i])
    return costs


def empirical_total_cost_hist(
    samples: np.ndarray, r_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized histogram over costs 0..r_max with Wilson 95% intervals.

    Returns (probability, lower, upper); samples above r_max fall outside
    the returned bins (they still count in the denominator).
    """
    samples = np.asarray(samples)
    n = len(samples)
    counts = np.bincount(samples[samples <= r_max], minlength=r_max + 1).astype(float)
    p = counts / n
    z = 1.959963984540054
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return p, center - half, center + half


def empirical_quantile(samples: np.ndarray, level: float) -> int:
    """Smallest cost whose empirical cumulative share reaches ``level``: the
    rule :meth:`TotalCostDistribution.from_mass` applies to a cost law."""
    return int(np.sort(samples)[math.ceil(level * len(samples)) - 1])


def empirical_bill_hist(
    result: SimResult, k: int, merge_tol: float = 1e-9
) -> tuple[tuple[float, float], ...]:
    """Observed (price, frequency) atoms for admitted class-k arrivals."""
    if not result.config.record_bills:
        raise ModelError("bills were not recorded; set record_bills")
    samples = result.bill_samples[k]
    if len(samples) == 0:
        raise ModelError(f"no admitted class-{k} arrivals observed")
    # equal prices always share an atom, so merging the distinct prices with
    # their counts gives the atoms of the sorted samples
    prices, counts = np.unique(samples, return_counts=True)
    atoms = _merge_atoms(prices.tolist(), counts.tolist(), merge_tol)
    n = len(samples)
    return tuple((p, c / n) for p, c in atoms)
