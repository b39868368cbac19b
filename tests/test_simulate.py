"""Monte Carlo oracle: determinism, agreement with the analytic layer."""

import dataclasses
import importlib
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
import scipy.stats

import losscost as lc
from losscost.simulate import BATCHES, BLOCK, _choice, _event_tables, _rng_for
from conftest import k1_instance, k2_reference, random_instance

# the package re-exports the function ``simulate`` under the module's name
simulate_module = importlib.import_module("losscost.simulate")


def _prices(classes, space):
    dist = lc.stationary(space, classes)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    return dist, lc.shadow_prices(costs, space)


def test_deterministic_given_seed():
    classes, space = k1_instance()
    dist, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=50.0, replications=20, seed=123)
    a = lc.simulate(space, classes, cfg, prices=prices)
    b = lc.simulate(space, classes, cfg, prices=prices)
    assert np.array_equal(a.total_cost_samples, b.total_cost_samples)
    assert np.array_equal(a.occupancy, b.occupancy)
    for k in range(space.K):
        assert np.array_equal(a.bill_samples[k], b.bill_samples[k])
    c = lc.simulate(space, classes, lc.SimConfig(horizon=50.0, replications=20, seed=124))
    assert not np.array_equal(a.total_cost_samples, c.total_cost_samples)


def test_no_arrivals_idle():
    classes = (lc.TrafficClass(lam=0.0, mu=1.0, omega=5),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    res = lc.simulate(space, classes, lc.SimConfig(horizon=10.0, replications=3, seed=1))
    assert res.total_cost_samples.sum() == 0
    assert res.occupancy[0] == pytest.approx(1.0)


def test_cost_rate_matches_analytic():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    res = lc.simulate(space, classes, lc.SimConfig(horizon=10_000.0, replications=1, seed=7))
    assert res.cost_rate == pytest.approx(dist.g, abs=3.0 * res.cost_rate_se)
    assert res.cost_rate_se < 0.05


def test_occupancy_total_variation():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    res = lc.simulate(
        space, classes, lc.SimConfig(horizon=100_000.0, replications=1, seed=2, warmup=100.0)
    )
    tv = 0.5 * np.abs(res.occupancy - dist.pi).sum()
    assert tv < 0.01
    assert res.occupancy.sum() == pytest.approx(1.0, abs=1e-12)


def test_arrivals_see_time_averages():
    classes, space = k2_reference()
    res = lc.simulate(
        space, classes, lc.SimConfig(horizon=50_000.0, replications=1, seed=3, warmup=50.0)
    )
    tv = 0.5 * np.abs(res.arrival_occupancy - res.occupancy).sum()
    assert tv < 0.01


def test_total_cost_mean_three_sigma():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    t = 40.0
    res = lc.simulate(space, classes, lc.SimConfig(horizon=t, replications=3000, seed=9))
    expected = t * dist.g - float(dist.pi @ costs.v)  # empty-start transient
    assert res.mean_cost() == pytest.approx(expected, abs=3.0 * res.mean_cost_se())


def test_always_blocked_class_is_poisson():
    # one state, one class that is never admitted: costs are Poisson counts
    space = lc.StateSpace([(0,)], np.array([[False]]))
    classes = (lc.TrafficClass(lam=1.0, mu=1.0, omega=1),)
    t, reps = 3.0, 20_000
    res = lc.simulate(space, classes, lc.SimConfig(horizon=t, replications=reps, seed=17))
    p, lo, hi = lc.empirical_total_cost_hist(res.total_cost_samples, 14)
    pois = scipy.stats.poisson.pmf(np.arange(15), t)
    assert res.mean_cost() == pytest.approx(t, abs=3.0 * res.mean_cost_se())
    # every Poisson mass inside its Wilson band up to small slack
    assert np.all(pois <= hi + 1e-3) and np.all(pois >= lo - 1e-3)
    # omega = 2 doubles the support spacing
    classes2 = (lc.TrafficClass(lam=1.0, mu=1.0, omega=2),)
    res2 = lc.simulate(space, classes2, lc.SimConfig(horizon=t, replications=2000, seed=18))
    assert np.all(res2.total_cost_samples % 2 == 0)


def test_simple_scheme_sampler_matches_closed_form():
    classes, space = k2_reference()
    t = 5.0
    samples = lc.simulate_simple_total_costs(space, classes, t, replications=100_000, seed=21)
    ref = lc.total_cost_distribution(space, classes, t)
    r_max = len(ref.mass) - 1
    p, lo, hi = lc.empirical_total_cost_hist(samples, r_max)
    inside = (ref.mass >= lo - 1e-4) & (ref.mass <= hi + 1e-4)
    assert inside.mean() > 0.95
    assert samples.mean() == pytest.approx(ref.mean, rel=0.02)


def _scan_simple_total_costs(space, classes, t, replications, seed):
    # reference: one scan of every sample per state, drawing in the same order
    dist = lc.stationary(space, classes)
    rng = _rng_for(seed, 0)
    states = rng.choice(len(space), size=replications, p=dist.pi)
    costs = np.zeros(replications, dtype=np.int64)
    for i in range(len(space)):
        mask = states == i
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        for j in space.blocked_classes(i):
            c = classes[j]
            if c.omega > 0 and c.lam > 0:
                costs[mask] += c.omega * rng.poisson(t * c.lam, size=cnt)
    return costs


def test_simple_sampler_matches_per_state_scan():
    cases = [(k2_reference(), 2.0, 5000, 3)]
    for seed in range(8):
        cases.append((random_instance(np.random.default_rng(seed)), 1.5, 3000, seed))
    for (classes, space), t, reps, seed in cases:
        got = lc.simulate_simple_total_costs(space, classes, t, reps, seed=seed)
        assert np.array_equal(got, _scan_simple_total_costs(space, classes, t, reps, seed))


def test_empirical_bills_match_distribution():
    classes, space = k1_instance()
    dist, prices = _prices(classes, space)
    bills = lc.bill_distribution(prices, dist.pi, space)
    reps, t = 400, 50.0
    cfg = lc.SimConfig(horizon=t, replications=reps, seed=5, warmup=10.0)
    res = lc.simulate(space, classes, cfg, prices=prices)
    hist = lc.empirical_bill_hist(res, 0)
    assert len(hist) == 2
    # pooled ratio estimator with per-replication influence terms for the SE
    counts = np.bincount(res.bill_reps[0], minlength=reps).astype(float)
    for atom_idx, (price, _) in enumerate(hist):
        hit = (np.abs(res.bill_samples[0] - price) < 1e-9).astype(float)
        atom = np.bincount(res.bill_reps[0], weights=hit, minlength=reps)
        phat = atom.sum() / counts.sum()
        se = np.sqrt(np.sum((atom - phat * counts) ** 2)) / counts.sum()
        want = bills.per_class[0][atom_idx][1]
        assert phat == pytest.approx(want, abs=3.0 * se)


def loop_bill_hist(samples, merge_tol=1e-9):
    """Bill atoms merged over every sorted sample, the loop that
    ``empirical_bill_hist`` replaced."""
    atoms = []
    for price in np.sort(samples):
        if atoms and price - atoms[-1][0] <= merge_tol:
            atoms[-1][1] += 1.0
        else:
            atoms.append([float(price), 1.0])
    return tuple((p, c / len(samples)) for p, c in atoms)


def test_empirical_bill_hist_matches_sample_loop(rng, monkeypatch):
    classes, space = k2_reference()
    dist, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=20.0, replications=300, seed=4)
    res = lc.simulate(space, classes, cfg, prices=prices)
    for k in range(space.K):
        assert lc.empirical_bill_hist(res, k) == loop_bill_hist(res.bill_samples[k])
    # repeated prices and chains of near-equal ones, merged by distance to
    # the first price of an atom
    base = rng.normal(size=40)
    samples = np.concatenate([base, base, base[:10] + 6e-10, base[:10] + 1.2e-9, base[:5] + 2e-9])
    fake = dataclasses.replace(res, bill_samples=[rng.permutation(samples)])
    for tol in (1e-9, 0.3):
        monkeypatch.setattr(simulate_module, "BILL_MERGE_TOL", tol)
        assert lc.empirical_bill_hist(fake, 0) == loop_bill_hist(samples, tol)


def test_empirical_bill_requires_recording():
    classes, space = k1_instance()
    res = lc.simulate(space, classes, lc.SimConfig(horizon=10.0, replications=2, seed=1))
    with pytest.raises(lc.ModelError):
        lc.empirical_bill_hist(res, 0)


def test_zero_cost_bills_are_zero():
    classes = (lc.TrafficClass(lam=1.0, mu=1.0, omega=0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=50.0, replications=5, seed=6)
    res = lc.simulate(space, classes, cfg, prices=prices)
    assert np.max(np.abs(res.bill_samples[0])) == pytest.approx(0.0, abs=1e-12)


def test_joint_state_cost_law_matches_recursion():
    # the trajectory recursion gives the exact joint (state, cost) law at the
    # horizon; the simulator's (final state, total cost) samples must agree
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    t, reps = 5.0, 20_000
    grid = lc.evolve_shadow_costs(space, classes, t, 2048, 30)
    res = lc.simulate(space, classes, lc.SimConfig(horizon=t, replications=reps, seed=13))
    outside = 0
    cells = 0
    for i in range(len(space)):
        for r in range(21):
            want = grid.mass[i, r]
            got = np.mean((res.final_states == i) & (res.total_cost_samples == r))
            se = np.sqrt(max(want * (1 - want), 1e-12) / reps)
            cells += 1
            if abs(got - want) > 3.5 * se + 2e-3:
                outside += 1
    assert outside <= max(1, cells // 20)


def test_occupancy_standard_errors():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    res = lc.simulate(space, classes, lc.SimConfig(horizon=200.0, replications=100, seed=23, warmup=20.0))
    assert np.all(res.occupancy_se > 0)
    assert np.all(np.abs(res.occupancy - dist.pi) <= 4.0 * res.occupancy_se)
    single = lc.simulate(space, classes, lc.SimConfig(horizon=100.0, replications=1, seed=23))
    assert np.all(np.isnan(single.occupancy_se))


def test_empirical_quantile_rule():
    # the smallest cost whose cumulative share reaches the level, as for the
    # cost laws: with costs 0..999 that is the 950th and 990th order statistic
    costs = np.arange(1000)[::-1]
    assert lc.empirical_quantile(costs, 0.95) == 949
    assert lc.empirical_quantile(costs, 0.99) == 989
    mass = np.full(1000, 1e-3)
    total = lc.TotalCostDistribution.from_mass(1.0, mass, 0.0, 0.0)
    assert (total.q95, total.q99) == (949, 989)


def test_empirical_quantile_extreme_levels():
    samples = np.array([3, 1, 2, 5, 4])
    assert lc.empirical_quantile(samples, 0.0) == 1
    assert lc.empirical_quantile(samples, 1e-9) == 1
    assert lc.empirical_quantile(samples, 1.0) == 5


@pytest.mark.parametrize("level", [-0.1, 1.1, float("nan"), float("inf")])
def test_empirical_quantile_rejects_bad_level(level):
    with pytest.raises(lc.ModelError, match="level"):
        lc.empirical_quantile(np.array([3, 1, 2]), level)


def test_simple_sampler_rejects_poisson_overflow():
    # t lam past numpy's Poisson limit (about 9.2e18) is refused by name
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(1e19, 1.0, 1, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    with pytest.raises(lc.ModelError, match="class 2: t [*] lambda = 1e[+]19"):
        lc.simulate_simple_total_costs(space, classes, 1.0, 10)
    assert simulate_module.POISSON_LAM_MAX == 9.223372006484771e18


def test_simple_sampler_rejects_int64_cost_overflow():
    # t lam fits the sampler, but omega N wraps around int64 (the unchecked
    # samples came out near -8.4e18)
    classes = (lc.TrafficClass(1e18, 1.0, 1, 10),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    with pytest.raises(lc.ModelError, match="class 1: .*overflow int64"):
        lc.simulate_simple_total_costs(space, classes, 1.0, 10)
    assert (lc.simulate_simple_total_costs(space, classes, 0.1, 10) > 0).all()


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
def test_simple_sampler_rejects_bad_horizon(t):
    classes, space = k1_instance()
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.simulate_simple_total_costs(space, classes, t, 10)


def test_simple_sampler_rejects_negative_replications():
    classes, space = k1_instance()
    with pytest.raises(lc.ModelError, match="replications"):
        lc.simulate_simple_total_costs(space, classes, 1.0, -1)
    assert len(lc.simulate_simple_total_costs(space, classes, 1.0, 0)) == 0


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
def test_sim_config_rejects_bad_horizon(t):
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.SimConfig(horizon=t)


def test_negative_seed_rejected():
    with pytest.raises(lc.ModelError, match="seed"):
        lc.SimConfig(horizon=1.0, seed=-1)
    with pytest.raises(lc.ModelError, match="seed"):
        lc.SimConfig(horizon=1.0, seed=2**64)
    classes, space = k1_instance()
    with pytest.raises(lc.ModelError, match="seed"):
        lc.simulate_simple_total_costs(space, classes, 1.0, 10, seed=-1)


def test_single_run_batch_means_exclude_warmup():
    # the windows cover (warmup, horizon] only; a first batch that also
    # held the warm-up cost made the error bar about 15x too wide
    classes, space = k1_instance()
    res = lc.simulate(space, classes, lc.SimConfig(horizon=2000.0, replications=1, seed=0, warmup=1000.0))
    assert res.cost_rate_se < 0.05


def test_single_run_cost_rate_excludes_warmup():
    # a single run's rate is the cost charged in (warmup, horizon] over its
    # length, the span its batch-means error bar covers
    classes, space = k2_reference()
    cfg = lc.SimConfig(horizon=50.0, replications=1, seed=9, warmup=20.0)
    res = lc.simulate(space, classes, cfg)
    tables = _event_tables(space, classes)
    states, events, times = reference_walk(tables, _rng_for(cfg.seed, 0), cfg.horizon)
    late = sum(int(tables.charge[s, e]) for s, e, at in zip(states, events, times[1:]) if at > cfg.warmup)
    assert late < res.total_cost_samples[0]
    assert res.cost_rate * (cfg.horizon - cfg.warmup) == pytest.approx(late, rel=1e-12)


def test_streams_keyed_by_replication():
    classes, space = k2_reference()
    a = lc.simulate(space, classes, lc.SimConfig(horizon=20.0, replications=10, seed=31))
    b = lc.simulate(space, classes, lc.SimConfig(horizon=20.0, replications=20, seed=31))
    assert np.array_equal(a.total_cost_samples, b.total_cost_samples[:10])
    assert np.array_equal(a.final_states, b.final_states[:10])


def test_occupancy_welford_matches_two_pass():
    classes, space = k2_reference()
    cfg = lc.SimConfig(horizon=30.0, replications=40, seed=8, warmup=5.0)
    res = lc.simulate(space, classes, cfg)
    tables = _event_tables(space, classes)
    fracs = np.zeros((cfg.replications, len(space)))
    for rep in range(cfg.replications):
        states, _, times = reference_walk(tables, _rng_for(cfg.seed, rep), cfg.horizon)
        for k, s in enumerate(states):
            fracs[rep, s] += max(0.0, min(times[k + 1], cfg.horizon) - max(times[k], cfg.warmup))
    fracs /= cfg.horizon - cfg.warmup
    np.testing.assert_allclose(res.occupancy, fracs.mean(axis=0), rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.occupancy_se, fracs.std(axis=0, ddof=1) / math.sqrt(cfg.replications),
                               rtol=1e-12, atol=0)


def test_event_tables_reject_missing_successor():
    # the one state admits the class, but the space has no state to enter
    space = lc.StateSpace([(0,)], np.array([[True]]))
    with pytest.raises(lc.ModelError, match="arrival"):
        lc.simulate(space, (lc.TrafficClass(lam=1.0, mu=1.0, omega=1),), lc.SimConfig(horizon=1.0))
    # a class that never arrives needs no successor
    res = lc.simulate(space, (lc.TrafficClass(lam=0.0, mu=1.0, omega=1),), lc.SimConfig(horizon=1.0))
    assert res.events == 0


def test_event_count_zero_rate_model():
    classes = (lc.TrafficClass(lam=0.0, mu=1.0, omega=5),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    res = lc.simulate(space, classes, lc.SimConfig(horizon=10.0, replications=3, seed=1))
    assert res.events == 0


def test_event_count_matches_stationary_rate():
    # every event counts 1: with r(s) the total event rate of state s and
    # rate = pi r, N(t) - t*rate = martingale + h(X_0) - h(X_t) where
    # Q h = rate - r and pi h = 0, so the variance rate of N is
    # sum_s pi_s sum_e rate_e(s) (1 + h(next_e(s)) - h(s))^2
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    tables = _event_tables(space, classes)
    rates = np.diff(np.array(tables.cum), axis=1, prepend=0.0)
    nxt = np.array(tables.nxt)
    rate = float(dist.pi @ rates.sum(axis=1))
    Q = lc.sparse_generator(space, classes).toarray()
    h = np.linalg.lstsq(np.vstack([Q, dist.pi]), np.append(rate - rates.sum(axis=1), 0.0), rcond=None)[0]
    jump = np.where(rates > 0, 1.0 + h[np.maximum(nxt, 0)] - h[:, None], 0.0)
    var_rate = float(dist.pi @ (rates * jump ** 2).sum(axis=1))
    reps, t = 20, 500.0
    res = lc.simulate(space, classes, lc.SimConfig(horizon=t, replications=reps, seed=12))
    assert abs(res.events - reps * t * rate) <= 5.0 * math.sqrt(reps * t * var_rate)


def loop_simulate(space, classes, config):
    """The event loop the simulator had before its event tables: numpy
    scalar ops on every event, one exponential and one uniform per event,
    per-replication occupancy rows.  Returns (total costs, occupancy,
    occupancy standard error); bills and batch means are left out."""
    lam = np.array([c.lam for c in classes])
    mu = np.array([c.mu for c in classes])
    omega = np.array([c.omega for c in classes], dtype=np.int64)
    lam_total = float(lam.sum())
    K = space.K
    rep_occupancy = np.zeros((config.replications, len(space)))
    total_costs = np.zeros(config.replications, dtype=np.int64)
    for rep in range(config.replications):
        rng = _rng_for(config.seed, rep)
        rep_time = rep_occupancy[rep]
        state = 0
        now = 0.0
        cost = 0
        while True:
            dep_rates = mu * space.occupancy[state]
            total_rate = lam_total + float(dep_rates.sum())
            if total_rate == 0.0:
                rep_time[state] += config.horizon - max(now, config.warmup)
                break
            event_time = now + rng.exponential(1.0 / total_rate)
            if event_time >= config.horizon:
                rep_time[state] += config.horizon - max(now, config.warmup)
                break
            if event_time > config.warmup:
                rep_time[state] += event_time - max(now, config.warmup)
            now = event_time
            u = rng.random() * total_rate
            if u < lam_total:
                j = 0
                acc = lam[0]
                while u > acc and j < K - 1:
                    j += 1
                    acc += lam[j]
                if space.admissible[state, j]:
                    state = int(space.up[state, j])
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
        total_costs[rep] = cost
    fracs = rep_occupancy / (config.horizon - config.warmup)
    return total_costs, fracs.mean(axis=0), fracs.std(axis=0, ddof=1) / math.sqrt(config.replications)


@pytest.mark.parametrize("instance", ["k2_reference", "random_0", "random_7"])
def test_agrees_with_event_loop(instance):
    if instance == "k2_reference":
        classes, space = k2_reference()
    else:
        classes, space = random_instance(np.random.default_rng(int(instance.split("_")[1])))
    cfg = lc.SimConfig(horizon=5.0, replications=1000, seed=41, warmup=1.0)
    res = lc.simulate(space, classes, cfg)
    # a different seed keeps the two samples independent
    costs, occ, occ_se = loop_simulate(space, classes, lc.SimConfig(horizon=5.0, replications=1000,
                                                                    seed=42, warmup=1.0))
    z = (res.mean_cost() - costs.mean()) / math.hypot(res.mean_cost_se(), costs.std(ddof=1) / math.sqrt(len(costs)))
    assert abs(z) <= 4.0
    se = np.hypot(res.occupancy_se, occ_se)
    seen = se > 0
    assert np.all(res.occupancy[~seen] == occ[~seen])
    assert np.all(np.abs(res.occupancy[seen] - occ[seen]) <= 4.0 * se[seen])


def reference_walk(tables, rng, horizon):
    """One replication from the empty state over [0, horizon], the walk the
    chunked simulator replaced.  Returns the path as lists: ``states`` (the
    empty state, then the state after each event), ``events`` (the event
    fired from ``states[k]`` at ``times[k + 1]``) and ``times`` (0, the jump
    times, then the horizon)."""
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
        e = bisect_right(cum[s], picks[pos] * rate)
        pos += 1
        s = nxt[s][e]
        states.append(s)
        events.append(e)
        times.append(now)
    times.append(horizon)
    return states, events, times


def reference_simulate(space, classes, config, prices=None):
    """The per-replication simulator: a fresh generator, one walk and one
    reduction of its path per replication, occupancy merged by Welford's
    update."""
    tables = _event_tables(space, classes)
    K, n, R = space.K, len(space), config.replications
    H, W = config.horizon, config.warmup
    total_costs = np.zeros(R, dtype=np.int64)
    final_states = np.zeros(R, dtype=np.int64)
    occ_mean = np.zeros(n)
    occ_m2 = np.zeros(n)
    arrival_counts = np.zeros(n, dtype=np.int64)
    bill_class, bill_price = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    bill_count = np.zeros(R, dtype=np.int64)
    window_costs = np.zeros(BATCHES)
    events = 0
    for rep in range(R):
        states, event_list, time_list = reference_walk(tables, _rng_for(config.seed, rep), H)
        path = np.array(states)
        times = np.array(time_list)
        src = path[:-1]
        ev = np.array(event_list, dtype=np.intp)
        at = times[1:-1]
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
        if prices is not None:
            billed = seen & tables.admitted[src, ev]
            bill_class.append(ev[billed])
            bill_price.append(prices.p[src[billed], ev[billed]])
            bill_count[rep] = len(bill_class[-1])
        if R == 1:
            post = at > W
            window = np.minimum(((at[post] - W) * (BATCHES / (H - W))).astype(np.intp), BATCHES - 1)
            window_costs += np.bincount(window, weights=charged[post], minlength=BATCHES)
    occupancy_se = np.sqrt(occ_m2 / (R - 1) / R) if R > 1 else np.full(n, math.nan)
    arr_total = arrival_counts.sum()
    arrival_occ = arrival_counts / arr_total if arr_total > 0 else arrival_counts.astype(float)
    rates = total_costs / H if R > 1 else window_costs / ((H - W) / BATCHES)
    bill_class, bill_price = np.concatenate(bill_class), np.concatenate(bill_price)
    bill_rep = np.repeat(np.arange(R, dtype=np.int64), bill_count)
    return lc.SimResult(
        config=config, total_cost_samples=total_costs, final_states=final_states,
        occupancy=occ_mean, occupancy_se=occupancy_se, arrival_occupancy=arrival_occ,
        bill_samples=[bill_price[bill_class == k] for k in range(K)],
        bill_reps=[bill_rep[bill_class == k] for k in range(K)],
        cost_rate=float(rates.mean()), cost_rate_se=float(rates.std(ddof=1) / math.sqrt(len(rates))),
        events=events)


EXACT_FIELDS = ("total_cost_samples", "final_states", "arrival_occupancy", "events",
                "cost_rate", "cost_rate_se")


def assert_same_run(got, want):
    """Bit-identical samples, bills and counts; occupancy and its standard
    error to 1e-12 relative, the rounding of a different merge order."""
    for field in EXACT_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
    for k in range(len(want.bill_samples)):
        assert np.array_equal(got.bill_samples[k], want.bill_samples[k])
        assert np.array_equal(got.bill_reps[k], want.bill_reps[k])
    np.testing.assert_allclose(got.occupancy, want.occupancy, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.occupancy_se, want.occupancy_se, rtol=1e-12, atol=0)


def _zero_rate_instance():
    # k2_reference plus a class that never arrives
    classes = (*k2_reference()[0], lc.TrafficClass(lam=0.0, mu=1.0, bandwidth=1, omega=3))
    return classes, lc.enumerate_states(classes, lc.FullSharing(capacity=4))


REFERENCE_MODELS = {"k2_reference": k2_reference, "zero_rate": _zero_rate_instance,
                    **{f"random_{i}": (lambda i=i: random_instance(np.random.default_rng(i)))
                       for i in range(8)}}


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_matches_per_replication_reference(name):
    classes, space = REFERENCE_MODELS[name]()
    _, prices = _prices(classes, space)
    for R in (1, 2, 200):
        for warmup in (0.0, 1.5):
            for bills in (False, True):
                cfg = lc.SimConfig(horizon=6.0, replications=R, seed=R + 17, warmup=warmup)
                billed = prices if bills else None
                got = lc.simulate(space, classes, cfg, prices=billed)
                assert_same_run(got, reference_simulate(space, classes, cfg, billed))


@pytest.mark.parametrize("events,cells", [(50, 2**18), (2**16, 40), (1, 1)],
                         ids=["by_events", "by_cells", "every_replication"])
def test_chunked_run_equals_one_chunk(monkeypatch, events, cells):
    classes, space = k2_reference()
    _, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=20.0, replications=60, seed=5, warmup=4.0)
    whole = lc.simulate(space, classes, cfg, prices=prices)
    monkeypatch.setattr(simulate_module, "CHUNK_EVENTS", events)
    monkeypatch.setattr(simulate_module, "CHUNK_CELLS", cells)
    chunks = []
    add = simulate_module._Tally.add
    monkeypatch.setattr(simulate_module._Tally, "add",
                        lambda self, *path: (chunks.append(len(path[3])), add(self, *path)))
    assert_same_run(lc.simulate(space, classes, cfg, prices=prices), whole)
    assert len(chunks) > 2 and sum(chunks) == cfg.replications


P_CASES = {
    "k2_pi": lc.stationary(*k2_reference()[::-1]).pi,
    "zeros": np.array([0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0]),
    "one_hot": np.array([0.0, 0.0, 1.0, 0.0]),
    "single": np.array([1.0]),
    "tiny": np.array([1e-300, 0.25, 1e-17, 0.25, 0.5 - 1e-17, 0.0]),
    "random": np.random.default_rng(3).dirichlet(np.full(500, 0.05)),
}


@pytest.mark.parametrize("size", [0, 1, 7, 1000, 100_000])
@pytest.mark.parametrize("name", P_CASES)
def test_choice_guide_table_matches_rng_choice(name, size):
    p = P_CASES[name]
    rng, want_rng = _rng_for(11, 0), _rng_for(11, 0)
    got = _choice(rng, p, size)
    want = want_rng.choice(len(p), size=size, p=p)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.random() == want_rng.random()


class _FixedUniforms:
    """Stands in for a generator whose uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u


@pytest.mark.parametrize("name", P_CASES)
def test_choice_ties_at_cumulative_probabilities(name):
    # uniforms equal to a cumulative probability or a bucket edge: the
    # guide table must resolve them as searchsorted(side="right") does
    p = P_CASES[name]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(1025) / 1024
    u = np.concatenate([cdf[cdf < 1], np.nextafter(cdf[cdf < 1], 0), edges[:-1], [np.nextafter(1.0, 0)]])
    got = _choice(_FixedUniforms(u), p, len(u))
    assert np.array_equal(got, cdf.searchsorted(u, "right"))


def test_sampler_matches_scan_past_16_bit_states():
    # 301**2 = 90,601 states: the grouping sorts int64 codes, not uint16
    classes = (lc.TrafficClass(lam=300.0, mu=1.0, omega=1), lc.TrafficClass(lam=290.0, mu=1.0, omega=2))
    space = lc.enumerate_states(classes, lc.PerClassThreshold(thresholds=(300, 300)))
    assert len(space) > 2**16
    got = lc.simulate_simple_total_costs(space, classes, 1.5, 3000, seed=4)
    assert np.count_nonzero(got) > 100
    assert np.array_equal(got, _scan_simple_total_costs(space, classes, 1.5, 3000, 4))


def _peak_bytes(space, classes, config):
    tracemalloc.start()
    try:
        lc.simulate(space, classes, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_replications(monkeypatch):
    # about 40 events per replication against chunks of 2**12 events (to keep
    # tracing cheap), so 200 replications already fill a chunk; ten times as
    # many must not hold ten times the paths
    monkeypatch.setattr(simulate_module, "CHUNK_EVENTS", 2**12)
    classes, space = k2_reference()
    small = _peak_bytes(space, classes, lc.SimConfig(horizon=15.0, replications=200, seed=1))
    large = _peak_bytes(space, classes, lc.SimConfig(horizon=15.0, replications=2000, seed=1))
    assert large < 1.25 * small
