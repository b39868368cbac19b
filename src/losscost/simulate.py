"""Discrete-event Monte Carlo oracle for the loss system.

Competing exponential clocks: class-j arrivals fire at rate lam_j regardless
of the state (a blocked arrival adds omega_j to the running cost and leaves
the occupancy alone), departures fire at rate mu_j q_j.  Each replication
draws from its own counter-based stream, a Philox generator keyed by
(seed, replication index), so results are bit-identical however many
replications run and however they are scheduled.

The simulator builds per-state event tables once (cumulative rates, next
state and charge per event), then walks the replications over them in
batches.  Uniforms come in blocks of ``2 * BLOCK``: holding times are
exponentials by inversion, -log(1 - u) / rate, and the event is the first
of the state's cumulative rates above the pick times the rate.  Philox is
counter based, so one generator set to key (seed, replication) and counter
b * BLOCK / 2 draws block b of that replication's stream.  While at least
``LANES_MIN`` replications of a batch are live, they step together, one
event each per numpy step on the uniforms each draws alone; every
replication still live after that, or every one of a smaller batch, is
finished by a plain Python loop from its state, time and place in its
block.  Both do the same float operations on the same uniforms, so the
paths do not depend on the batching.  A path is a replication's events as
cells (source state * 2K + event) and jump times.  The paths are reduced in
chunks with array operations; a chunk closes once it holds ``CHUNK_EVENTS``
events or its replications x states occupancy block reaches ``CHUNK_CELLS``
cells.  Costs, final states, post-warm-up costs, bills and window costs are
exact reductions of the paths, so they do not depend on the chunking.
Per-state occupancy mean and sum of squared deviations are merged across
chunks by Chan's pairwise update, so memory is O(states + one batch + one
chunk); the merge may move the last digits of the occupancy estimates,
nothing else.

Also contains a direct sampler for the simple charging scheme (stationary
state, then frozen compound-Poisson charges), which is the Monte Carlo
counterpart of the closed-form cost law.  It draws the states first, then
one vector of Poisson counts per charging class over the replications whose
state charges that class.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costdist import default_r_max
from .model import ModelError, StateSpace, TrafficClass, _charging, _check_horizon, stationary
from .howard import BILL_MERGE_TOL, ShadowPriceTable, _merge_atoms

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate",
    "simulate_simple_total_costs",
    "empirical_total_cost_hist",
    "empirical_quantile",
    "empirical_bill_hist",
]

# largest mean numpy's Generator.poisson accepts: int64 max - 10 sqrt(int64 max)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# events per block of uniforms: one block draws 2 * BLOCK, a holding time
# and an event choice per event
BLOCK = 256
# equal windows of (warmup, horizon] whose cost rates estimate a single
# run's cost rate and its batch-means error
BATCHES = 16
# a chunk of replications is reduced once its paths hold CHUNK_EVENTS events
# or its (replication, state) occupancy block CHUNK_CELLS cells
CHUNK_EVENTS = 2**16
CHUNK_CELLS = 2**18
# replications are walked in batches of about WALK_EVENTS events, each
# replication counted as horizon x peak event rate and at least as the BLOCK
# events of its block of uniforms (both 16 B per event)
WALK_EVENTS = 2**17
# most events a run may ask for, replications x the larger of horizon x the
# peak per-state event rate and BLOCK.  The Python loop holds a path at
# about 64 B per event (peak, lists then arrays) and runs at 0.36-0.41 us
# per event; lockstep holds about 50-55 B per event at its peak and 4 KB of
# uniforms per replication, at 0.10-0.36 us per event for 512 down to 32
# replications (2-vCPU host).  So one replication at the cap holds about
# 1 GB, any run at the cap takes a few seconds, and at most 65,536
# replications run, whatever the horizon.
EVENT_CAP = 2**24
# fewest live replications that step in lockstep: a lockstep step costs
# 468 / 357 / 212 / 102 ns per replication at 24 / 32 / 64 / 512 of them,
# the Python loop about 380 ns per event (2-vCPU host)
LANES_MIN = 32
_ZERO4 = np.zeros(4, dtype=np.uint64)


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: horizon per replication, count, seed, warm-up.

    ``warmup`` time is discarded from the occupancy and bill estimates and
    from the cost rate; the per-replication costs always accumulate from
    time zero in the empty state.
    ``seed`` is the first half of each replication's 128-bit Philox key, so
    it must lie in [0, 2**64).
    """

    horizon: float
    replications: int = 1
    seed: int = 0
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
    a single replication, where the pooled value is the only estimate).
    ``bill_samples[k]`` holds the shadow prices charged to admitted class-k
    arrivals past warmup when ``prices`` was passed to :func:`simulate` (else
    nothing), and ``bill_reps[k]`` the replication index of each bill so
    that per-replication statistics (independent across replications) can
    be formed.  ``cost_rate`` and ``cost_rate_se`` are the mean and standard
    error of the per-replication rates (cost over (warmup, horizon] /
    (horizon - warmup)) when there are several replications, and of the
    rates of ``BATCHES`` equal windows of (warmup, horizon] (batch means)
    for a single one.  ``events`` counts
    every simulated event (arrivals, blocked or not, and departures) over
    all replications.
    """

    config: SimConfig
    total_cost_samples: np.ndarray
    final_states: np.ndarray
    occupancy: np.ndarray
    occupancy_se: np.ndarray
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


class _Streams:
    """One Philox generator that can be pointed at any block of any
    replication's stream: the state of ``_rng_for(seed, rep)`` once its
    first ``block`` blocks of ``2 * BLOCK`` uniforms are drawn, set
    without building a new generator.  A counter step gives four 64-bit
    words, one uniform each, so a block is ``BLOCK // 2`` steps."""

    def __init__(self, seed: int):
        self.rng = _rng_for(seed, 0)
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": self._key},
                       "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at(self, rep: int, block: int) -> np.random.Generator:
        self._key[1] = rep
        self._counter[0] = block * (BLOCK // 2)
        self.rng.bit_generator.state = self._state
        return self.rng


@dataclass(frozen=True)
class _EventTables:
    """Per-state event tables; event e < K is a class-e arrival, event K + j
    a class-j departure, and cell s * 2K + e is event e fired from state s.
    The scalar walk reads the Python lists, the lockstep walk and the
    bookkeeping the arrays."""

    cum: list[list[float]]   # cumulative event rates of each state
    total: list[float]       # total event rate of each state
    nxt: list[list[int]]     # state after each event (a blocked arrival stays)
    cum_rows: np.ndarray     # (states, 2K) float: ``cum`` as an array
    nxt_cells: np.ndarray    # (states * 2K,) intp: ``nxt`` by cell
    charge: np.ndarray       # (states, 2K) int64: omega_j where class j charges
    admitted: np.ndarray     # (states, 2K) bool: an admitted arrival


def _event_tables(space: StateSpace, classes: Sequence[TrafficClass]) -> _EventTables:
    n, K = len(space), space.K
    lam, omega, charging = _charging(space, classes)
    mu = np.array([c.mu for c in classes], dtype=float)
    rates = np.hstack([np.broadcast_to(lam, (n, K)), mu * space.occupancy])
    # a blocked arrival stays put; a departure of a class with q_j = 0 has
    # rate zero and is never drawn
    nxt = np.hstack([np.where(space.admissible, space.up, np.arange(n)[:, None]), space.down])
    cum = np.cumsum(rates, axis=1)
    departures = np.zeros((n, K), dtype=np.int64)
    return _EventTables(
        cum=cum.tolist(),
        total=cum[:, -1].tolist(),
        nxt=nxt.tolist(),
        cum_rows=cum,
        nxt_cells=nxt.ravel().astype(np.intp),
        charge=np.hstack([np.where(charging, omega, 0), departures]),
        admitted=np.hstack([space.admissible, departures.astype(bool)]),
    )


def _walk(tables: _EventTables, rng: np.random.Generator, horizon: float, s: int, now: float,
          holds: Sequence[float], picks: Sequence[float], src: list, event: list, time: list) -> int:
    """One replication from state ``s`` at time ``now`` < horizon, whose
    next uniforms are ``holds`` and ``picks`` and then ``rng``'s blocks.

    Appends the path to ``src`` (the state each event fires from), ``event``
    (the event fired) and ``time`` (its jump time); returns the state
    occupied at the horizon.  The state's total rate must not be zero.
    """
    cum, total, nxt = tables.cum, tables.total, tables.nxt
    rate = total[s]
    while True:
        for h, p in zip(holds, picks):
            now += h / rate
            if now >= horizon:
                return s
            # p * rate < rate, and a zero-rate column repeats its left
            # neighbour's cumulative rate, so bisect_right never lands on it
            e = bisect_right(cum[s], p * rate)
            src.append(s)
            event.append(e)
            time.append(now)
            s = nxt[s][e]
            rate = total[s]
        u = rng.random(2 * BLOCK)
        holds, picks = (-np.log1p(-u[:BLOCK])).tolist(), u[BLOCK:].tolist()


def _lockstep(tables: _EventTables, streams: _Streams, first: int, m: int, horizon: float
              ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step replications ``first`` .. ``first + m - 1`` together from the
    empty state, one event each per step, while at least ``LANES_MIN`` of
    them are live.

    Each step is the scalar walk's arithmetic in array operations, on the
    uniforms each replication would draw alone.  Replications whose time
    passed the horizon keep stepping (their times only grow), so that no
    step compacts the arrays.  Returns the number of steps, each
    replication's state and time after the last one and its current block
    of uniforms (-log(1 - u) holding times, then picks), and the cells
    (source state * 2K + event) and jump times of every step, step-major.
    """
    K2 = tables.charge.shape[1]
    s, now = np.zeros(m, dtype=np.intp), np.zeros(m)
    uniforms = np.empty((m, 2 * BLOCK))
    holds, picks = uniforms[:, :BLOCK], uniforms[:, BLOCK:]
    cells, times = np.empty((BLOCK, m), dtype=np.intp), np.empty((BLOCK, m))
    step = 0
    while np.count_nonzero(now < horizon) >= LANES_MIN:
        if step == len(cells):
            cells = np.concatenate((cells, np.empty_like(cells)))
            times = np.concatenate((times, np.empty_like(times)))
        pos = step % BLOCK
        if pos == 0:
            for lane in np.flatnonzero(now < horizon).tolist():
                streams.at(first + lane, step // BLOCK).random(out=uniforms[lane])
            # a finished replication keeps its stale holding times, which
            # are no uniforms: zero them so that its time stays put
            holds[now >= horizon] = 0.0
            np.log1p(np.negative(holds, out=holds), out=holds)
            np.negative(holds, out=holds)
        rows = np.take(tables.cum_rows, s, axis=0)
        rate = rows[:, -1]
        now = np.add(now, holds[:, pos] / rate, out=times[step])
        # the first cumulative rate above p * rate: bisect_right's event
        e = np.argmax(rows > (picks[:, pos] * rate)[:, None], axis=1)
        cell = np.multiply(s, K2, out=cells[step])
        cell += e
        s = tables.nxt_cells[cell]
        step += 1
    return step, s, now, uniforms, cells[:step], times[:step]


def _walks(tables: _EventTables, seed: int, first: int, m: int, horizon: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replications ``first`` .. ``first + m - 1`` from the empty state
    over [0, horizon].

    With at least ``LANES_MIN`` of them, they start in :func:`_lockstep`;
    each one still live after it, or every one of fewer, is finished by
    :func:`_walk` from its state, time and place in its block.  Returns
    the events in replication order, as cells (source state * 2K + event)
    and jump times, the end offset of each replication's events and the
    state each occupies at the horizon.
    """
    K2 = tables.charge.shape[1]
    streams = _Streams(seed)
    step, s, now = 0, np.zeros(m, dtype=np.intp), np.zeros(m)
    counts, finals = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp)
    if tables.total[0] == 0.0:
        # blocked arrivals fire too, so every state's total rate is at least
        # the empty state's (the sum of the arrival rates): only there can
        # it be zero, and then nothing ever fires
        return np.zeros(0, dtype=np.intp), np.zeros(0), counts, finals
    if m >= LANES_MIN:
        step, s, now, uniforms, cells, times = _lockstep(tables, streams, first, m, horizon)
        # replication-major; the events of each are the steps before its
        # time reached the horizon
        cells, times = cells.T, times.T
        done = times < horizon
        counts = done.sum(axis=1)
        last = cells[np.arange(m), np.maximum(counts - 1, 0)]
        finals = np.where(counts > 0, tables.nxt_cells[last], 0)
        cells, times = cells[done], times[done]

    # the scalar finish: the rest of the current block, then the next ones
    live = np.flatnonzero(now < horizon)
    src, event, time, extra = [], [], [], np.zeros(m, dtype=np.intp)
    pos = step % BLOCK
    for lane in live.tolist():
        rng = streams.at(first + lane, -(-step // BLOCK))
        holds, picks = ((uniforms[lane, pos:BLOCK].tolist(), uniforms[lane, BLOCK + pos:].tolist())
                        if pos else ((), ()))
        finals[lane] = _walk(tables, rng, horizon, int(s[lane]), float(now[lane]), holds, picks,
                             src, event, time)
        extra[lane] = len(src)
    extra[live] = np.diff(extra[live], prepend=0)
    tail_cells = np.fromiter(src, dtype=np.intp, count=len(src)) * K2
    tail_cells += np.fromiter(event, dtype=np.intp, count=len(src))
    tail_times = np.fromiter(time, dtype=float, count=len(src))
    if not step:
        return tail_cells, tail_times, np.cumsum(extra), finals
    if len(src):
        # each replication the scalar loop finished: its scalar events after
        # its lockstep ones
        at = np.repeat(np.cumsum(counts)[live], extra[live])
        cells, times = np.insert(cells, at, tail_cells), np.insert(times, at, tail_times)
    return cells, times, np.cumsum(counts + extra), finals


class _Tally:
    """Run-wide sums of the paths of consecutive chunks of replications.

    Occupancy is merged as per-state mean and sum of squared deviations by
    Chan's pairwise update, so memory is O(states + one chunk)."""

    def __init__(self, tables: _EventTables, config: SimConfig, prices: ShadowPriceTable | None):
        R, n, K = config.replications, tables.charge.shape[0], tables.charge.shape[1] // 2
        self.tables, self.config, self.n, self.K = tables, config, n, K
        # the price an admitted arrival pays, per cell of the (states, 2K) tables
        self.price = None if prices is None else np.hstack([prices.p, np.zeros((n, K))]).ravel()
        self.total_costs = np.zeros(R, dtype=np.int64)
        self.final_states = np.zeros(R, dtype=np.int64)
        self.late_costs = np.zeros(R, dtype=np.int64)
        self.occ_mean = np.zeros(n)
        self.occ_m2 = np.zeros(n)
        # bills in replication order: class, price, and the count per replication
        self.bill_class, self.bill_price = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        self.bill_count = np.zeros(R, dtype=np.int64)
        self.window_costs = np.zeros(BATCHES)
        self.reps = 0
        self.events = 0
        # walked replications not yet in a complete chunk, as _walks returns them
        self.held = (np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.intp),
                     np.zeros(0, dtype=np.intp))

    def feed(self, cells: np.ndarray, times: np.ndarray, ends: np.ndarray, finals: np.ndarray) -> None:
        """Take the paths of the next replications, as :func:`_walks`
        returns them, and :meth:`add` every chunk they complete.  A chunk
        closes at its first replication that brings its events to
        ``CHUNK_EVENTS`` or its occupancy block to ``CHUNK_CELLS`` cells,
        or at the run's last replication, so chunks do not depend on how
        the replications were walked."""
        held = self.held
        if len(held[2]):
            cells, times = np.concatenate((held[0], cells)), np.concatenate((held[1], times))
            ends = np.concatenate((held[2], ends + len(held[0])))
            finals = np.concatenate((held[3], finals))
        per_chunk = -(-CHUNK_CELLS // self.n)
        run_done = len(ends) == self.config.replications - self.reps
        start = base = 0
        while start < len(ends):
            stop = min(int(np.searchsorted(ends, base + CHUNK_EVENTS)) + 1, start + per_chunk)
            if stop > len(ends):
                if not run_done:
                    break
                stop = len(ends)
            self.add(cells[base:ends[stop - 1]], times[base:ends[stop - 1]],
                     ends[start:stop] - base, finals[start:stop])
            start, base = stop, ends[stop - 1]
        # copies, so that the reduced chunks are freed
        self.held = (cells[base:].copy(), times[base:].copy(), ends[start:] - base, finals[start:].copy())

    def add(self, cell: np.ndarray, at: np.ndarray, ends: np.ndarray, finals: np.ndarray) -> None:
        """Fold in one chunk: the paths of the next ``len(ends)``
        replications, their events' cells and jump times concatenated,
        replication r's ending before ``ends[r]``, and the states they
        occupy at the horizon."""
        tables, n, K = self.tables, self.n, self.K
        H, W = self.config.horizon, self.config.warmup
        first, m = self.reps, len(ends)
        counts = np.diff(ends, prepend=0)
        starts = ends - counts
        row = np.arange(0, m * n, n)  # each replication's row of the occupancy block
        src = cell // (2 * K)

        charged = tables.charge.ravel()[cell]
        post = at > W
        self.total_costs[first:first + m] = _segment_sums(charged, starts, ends)
        self.late_costs[first:first + m] = _segment_sums(charged * post, starts, ends)
        self.final_states[first:first + m] = finals

        # sojourns in (W, H]: before each event from the previous one (or
        # from 0), and in the final state up to the horizon
        clipped = np.concatenate(([W], np.maximum(at, W)))  # every event fires before H
        before = clipped[:-1].copy()
        before[starts[counts > 0]] = W
        last = np.where(counts > 0, clipped[ends], W)
        where = np.concatenate((np.repeat(row, counts) + src, row + finals))
        spent = np.concatenate((clipped[1:] - before, H - last))
        frac = np.bincount(where, weights=spent, minlength=m * n).reshape(m, n)
        frac /= H - W
        mean = frac.mean(axis=0)
        frac -= mean
        frac *= frac
        delta = mean - self.occ_mean
        total = first + m
        self.occ_mean += delta * (m / total)
        self.occ_m2 += frac.sum(axis=0) + delta * delta * (first * m / total)

        if self.price is not None:
            billed = (at >= W) & tables.admitted.ravel()[cell]
            self.bill_class.append(cell[billed] % (2 * K))
            self.bill_price.append(self.price[cell[billed]])
            self.bill_count[first:first + m] = _segment_sums(billed, starts, ends)
        if self.config.replications == 1:
            window = np.minimum(((at[post] - W) * (BATCHES / (H - W))).astype(np.intp), BATCHES - 1)
            self.window_costs += np.bincount(window, weights=charged[post], minlength=BATCHES)
        self.reps = total
        self.events += len(cell)


def _segment_sums(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Integer sums of ``values[starts[r]:ends[r]]`` for every r, from one
    cumulative sum (exact for integers and bools)."""
    total = np.concatenate(([0], np.cumsum(values)))
    return total[ends] - total[starts]


def simulate(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    config: SimConfig,
    prices: ShadowPriceTable | None = None,
) -> SimResult:
    """Run the loss system and accumulate blocking costs, and the bills of
    admitted arrivals when ``prices`` is given.

    Deterministic given (model, config): replication i uses the Philox
    stream keyed by (seed, i), independent of the replication count.  Each
    replication is one walk over per-state event tables, holding times
    drawn by inversion from blocks of uniforms; the walks of a batch of
    replications step in lockstep while at least ``LANES_MIN`` of them are
    live, with the same arithmetic on the same uniforms.  The paths of a
    chunk of replications are reduced together with array operations, and
    per-state occupancy is merged across chunks by Chan's update, so memory
    is O(states + one batch + one chunk).  ``cost_rate`` and
    ``cost_rate_se`` cover (warmup, horizon]: across replications, or by
    batch means over ``BATCHES`` equal windows of a single one.  A run whose
    replications x the larger of horizon x peak per-state event rate and
    ``BLOCK`` passes ``EVENT_CAP`` is refused with :class:`ModelError`
    before anything of the run's size is allocated.
    """
    classes = tuple(classes)
    tables = _event_tables(space, classes)
    K, n, R, H, W = space.K, len(space), config.replications, config.horizon, config.warmup
    peak = max(tables.total)
    # every replication costs at least one block of uniforms, whatever its events
    per_rep = max(H * peak, BLOCK)
    if R * per_rep > EVENT_CAP:
        what = (f"horizon {H:g} x peak event rate {peak:g}" if H * peak >= BLOCK
                else f"one block of {BLOCK} events")
        raise ModelError(f"{R} replications x {what} is {R * per_rep:.3g} events, "
                         f"past the simulator's cap of {EVENT_CAP}")
    tally = _Tally(tables, config, prices)
    lanes = max(1, int(WALK_EVENTS // per_rep))
    for first in range(0, R, lanes):
        tally.feed(*_walks(tables, config.seed, first, min(lanes, R - first), H))

    occupancy_se = np.sqrt(tally.occ_m2 / (R - 1) / R) if R > 1 else np.full(n, math.nan)
    # per-replication rates, or a single run's window rates
    rates = tally.late_costs / (H - W) if R > 1 else tally.window_costs / ((H - W) / BATCHES)

    bill_class, bill_price = np.concatenate(tally.bill_class), np.concatenate(tally.bill_price)
    bill_rep = np.repeat(np.arange(R, dtype=np.int64), tally.bill_count)

    return SimResult(
        config=config,
        total_cost_samples=tally.total_costs,
        final_states=tally.final_states,
        occupancy=tally.occ_mean,
        occupancy_se=occupancy_se,
        bill_samples=[bill_price[bill_class == k] for k in range(K)],
        bill_reps=[bill_rep[bill_class == k] for k in range(K)],
        cost_rate=float(rates.mean()),
        cost_rate_se=float(rates.std(ddof=1) / math.sqrt(len(rates))),
        events=tally.events,
    )


def _choice(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(p), size, p=p)``: the same uniforms and the same
    ``cdf.searchsorted(u, "right")`` results, found through a guide table
    (Chen & Asau 1974).  The uniforms fall in 2**k equal buckets, at most
    16 per entry of ``p`` and about one per sample; a bucket that no
    cumulative probability splits gives its index directly, and only the
    uniforms in split buckets are searched."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    m = 1 << (min(16 * len(p), size) - 1).bit_length()
    edges = np.arange(m + 1) / m
    lo = cdf.searchsorted(edges[:-1], "right")
    split = cdf.searchsorted(edges[1:], "left") != lo
    bucket = (u * m).astype(np.intp)
    idx = lo[bucket]
    amb = split[bucket]
    idx[amb] = cdf.searchsorted(u[amb], "right")
    return idx


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
    sampling counterpart of the closed-form cost law.  The states of a seed
    come first, in one draw; then, class by class, one vector of Poisson
    counts goes to the replications whose state charges that class, in
    position order.  ``t`` must be finite and above zero and
    ``replications`` at least zero; every class that charges somewhere must
    have t * lam within numpy's Poisson limit, and the cost truncation
    :func:`~losscost.costdist.default_r_max` of those classes must fit
    int64.  All are checked before anything is drawn.
    """
    classes = tuple(classes)
    _check_horizon(t)
    if not replications >= 0:
        raise ModelError(f"replications must be >= 0, got {replications}")
    _check_seed(seed)
    lam, omega, charging = _charging(space, classes)
    charges = np.flatnonzero(charging.any(axis=0))
    for j in charges:
        if t * lam[j] > POISSON_LAM_MAX:
            raise ModelError(f"class {j + 1}: t * lambda = {t * lam[j]:g} passes the Poisson "
                             f"sampler's limit {POISSON_LAM_MAX:g}")
    if default_r_max([classes[j] for j in charges], t) > np.iinfo(np.int64).max:
        j = charges[np.argmax(lam[charges] * omega[charges])]
        raise ModelError(f"class {j + 1}: t * lambda * omega = {t * lam[j] * omega[j]:g} "
                         "lets the sampled costs overflow int64")
    rng = _rng_for(seed, 0)
    states = _choice(rng, stationary(space, classes).pi, replications)
    costs = np.zeros(replications, dtype=np.int64)
    for j in charges:
        hit = np.flatnonzero(charging[states, j])
        costs[hit] += omega[j] * rng.poisson(t * lam[j], len(hit))
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
    if n == 0:
        raise ModelError("no samples to take a histogram of")
    counts = np.bincount(samples[samples <= r_max], minlength=r_max + 1).astype(float)
    p = counts / n
    z = 1.959963984540054
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return p, center - half, center + half


def empirical_quantile(samples: np.ndarray, level: float) -> int:
    """Smallest cost whose empirical cumulative share reaches ``level``: the
    rule :meth:`TotalCostDistribution.from_mass` applies to a cost law, so
    level 0 gives the smallest sample and level 1 the largest."""
    if not 0.0 <= level <= 1.0:
        raise ModelError(f"quantile level must lie in [0, 1], got {level}")
    ordered = np.sort(samples)
    if len(ordered) == 0:
        raise ModelError("no samples to take a quantile of")
    return int(ordered[max(math.ceil(level * len(ordered)) - 1, 0)])


def empirical_bill_hist(result: SimResult, k: int) -> tuple[tuple[float, float], ...]:
    """Observed (price, frequency) atoms for admitted class-k arrivals,
    prices within ``BILL_MERGE_TOL`` of an atom's first price merged as
    :func:`~losscost.howard.bill_distribution` merges them."""
    samples = result.bill_samples[k]
    if len(samples) == 0:
        raise ModelError(f"no admitted class-{k + 1} arrivals observed")
    # equal prices always share an atom, so merging the distinct prices with
    # their counts gives the atoms of the sorted samples
    prices, counts = np.unique(samples, return_counts=True)
    price, count = _merge_atoms(prices, counts, BILL_MERGE_TOL)
    return tuple(zip(price.tolist(), (count / len(samples)).tolist()))
