"""Discrete-event Monte Carlo oracle for the loss system.

Competing exponential clocks: class-j arrivals fire at rate lam_j regardless
of the state (a blocked arrival adds omega_j to the running cost and leaves
the occupancy alone), departures fire at rate mu_j q_j.  Each replication
draws from its own counter-based stream keyed by (seed, replication index),
so results are bit-identical however the replications are scheduled.

Also contains a direct sampler for the simple charging scheme (stationary
state, then frozen compound-Poisson charges), which is the Monte Carlo
counterpart of the closed-form cost law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelError, StateSpace, TrafficClass, _check_horizon, stationary
from .howard import ShadowPriceTable

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


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: horizon per replication, count, seed, options.

    ``warmup`` time is discarded from occupancy (and rate) estimates only;
    cost accumulation always starts at time zero from the empty state.
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


@dataclass
class SimResult:
    """Aggregated replication output.

    ``total_cost_samples[i]`` is the integer blocking cost accumulated in
    replication i over [0, horizon] and ``final_states[i]`` the state index
    occupied at the horizon.  ``occupancy`` is the time-average state
    distribution past warmup, pooled over replications, with
    ``occupancy_se`` the replication-based standard error per state (NaN for
    a single replication, where the pooled value is the only estimate);
    ``arrival_occupancy`` the state distribution seen by arriving calls
    (for the time-average comparison).  ``bill_samples[k]`` holds the shadow
    prices charged to admitted class-k arrivals past warmup when bills were
    recorded, and ``bill_reps[k]`` the replication index of each bill so that
    per-replication statistics (independent across replications) can be
    formed.
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

    def mean_cost(self) -> float:
        return float(self.total_cost_samples.mean())

    def mean_cost_se(self) -> float:
        n = len(self.total_cost_samples)
        if n < 2:
            return math.nan
        return float(self.total_cost_samples.std(ddof=1) / math.sqrt(n))


def _rng_for(seed: int, rep: int) -> np.random.Generator:
    # Philox is counter based: the (seed, rep) key pins the whole stream.
    return np.random.Generator(np.random.Philox(key=np.random.SeedSequence((seed, rep)).generate_state(2, np.uint64)))


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


def simulate(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    config: SimConfig,
    prices: ShadowPriceTable | None = None,
) -> SimResult:
    """Run the loss system and accumulate blocking costs (and bills).

    Deterministic given (model, config): replication i uses the substream
    keyed by (seed, i) and the merge over replications is order independent.
    ``prices`` must be supplied when ``record_bills`` is set.
    """
    classes = tuple(classes)
    if config.record_bills and prices is None:
        raise ModelError("record_bills requires a shadow price table")
    lam = np.array([c.lam for c in classes])
    mu = np.array([c.mu for c in classes])
    omega = np.array([c.omega for c in classes], dtype=np.int64)
    lam_total = float(lam.sum())
    K = space.K
    n = len(space)

    total_costs = np.zeros(config.replications, dtype=np.int64)
    final_states = np.zeros(config.replications, dtype=np.int64)
    occupancy_time = np.zeros(n)
    rep_occupancy = np.zeros((config.replications, n)) if config.replications > 1 else None
    arrival_counts = np.zeros(n, dtype=np.int64)
    bills: list[list[float]] = [[] for _ in range(K)]
    bill_rep_ids: list[list[int]] = [[] for _ in range(K)]
    batch_costs: list[float] = []

    # batch-means bookkeeping for the single-long-run rate estimate
    n_batches = 32 if config.replications == 1 else 0
    batch_len = (config.horizon - config.warmup) / n_batches if n_batches else 0.0

    for rep in range(config.replications):
        rng = _rng_for(config.seed, rep)
        rep_time = rep_occupancy[rep] if rep_occupancy is not None else occupancy_time
        state = 0
        now = 0.0
        cost = 0
        batch_mark = config.warmup + batch_len if n_batches else math.inf
        batch_start_cost = 0
        while True:
            occ = space.occupancy[state]
            dep_rates = mu * occ
            total_rate = lam_total + float(dep_rates.sum())
            if total_rate == 0.0:
                rep_time[state] += config.horizon - max(now, config.warmup)
                break
            dt = rng.exponential(1.0 / total_rate)
            event_time = now + dt
            if event_time >= config.horizon:
                rep_time[state] += config.horizon - max(now, config.warmup)
                break
            if event_time > config.warmup:
                rep_time[state] += event_time - max(now, config.warmup)
            now = event_time
            while n_batches and now > batch_mark and len(batch_costs) < n_batches * (rep + 1):
                batch_costs.append(cost - batch_start_cost)
                batch_start_cost = cost
                batch_mark += batch_len

            u = rng.random() * total_rate
            if u < lam_total:
                # arrival; pick the class by rate share
                j = 0
                acc = lam[0]
                while u > acc and j < K - 1:
                    j += 1
                    acc += lam[j]
                if now >= config.warmup:
                    arrival_counts[state] += 1
                if space.admissible[state, j]:
                    if config.record_bills and now >= config.warmup:
                        bills[j].append(float(prices.p[state, j]))
                        bill_rep_ids[j].append(rep)
                    nxt = space.up[state, j]
                    assert nxt >= 0, "admitted into a state outside the space"
                    state = int(nxt)
                else:
                    cost += int(omega[j])
            else:
                u -= lam_total
                j = 0
                acc = dep_rates[0]
                while u > acc and j < K - 1:
                    j += 1
                    acc += dep_rates[j]
                state = int(space.down[state, j])
                assert state >= 0, "departure from an empty class"
        total_costs[rep] = cost
        final_states[rep] = state

    if rep_occupancy is not None:
        span_per = config.horizon - config.warmup
        rep_fracs = rep_occupancy / span_per
        occupancy = rep_fracs.mean(axis=0)
        occupancy_se = rep_fracs.std(axis=0, ddof=1) / math.sqrt(config.replications)
    else:
        span = occupancy_time.sum()
        occupancy = occupancy_time / span if span > 0 else occupancy_time
        occupancy_se = np.full(n, math.nan)
    arr_total = arrival_counts.sum()
    arrival_occ = arrival_counts / arr_total if arr_total > 0 else arrival_counts.astype(float)

    horizon_total = config.replications * config.horizon
    cost_rate = float(total_costs.sum()) / horizon_total
    if config.replications > 1:
        per_rep = total_costs / config.horizon
        se = float(per_rep.std(ddof=1) / math.sqrt(config.replications))
    elif batch_costs:
        se = batch_means_se(np.array(batch_costs) / batch_len)
    else:
        se = math.nan

    return SimResult(
        config=config,
        total_cost_samples=total_costs,
        final_states=final_states,
        occupancy=occupancy,
        occupancy_se=occupancy_se,
        arrival_occupancy=arrival_occ,
        bill_samples=[np.array(b) for b in bills],
        bill_reps=[np.array(b, dtype=np.int64) for b in bill_rep_ids],
        cost_rate=cost_rate,
        cost_rate_se=se,
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
    charging = ~space.admissible & np.array([c.omega > 0 and c.lam > 0 for c in classes])
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
    atoms: list[list[float]] = []
    for price in np.sort(samples):
        if atoms and price - atoms[-1][0] <= merge_tol:
            atoms[-1][1] += 1.0
        else:
            atoms.append([float(price), 1.0])
    n = len(samples)
    return tuple((p, c / n) for p, c in atoms)
