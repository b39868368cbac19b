"""Monte Carlo oracle: determinism, agreement with the analytic layer."""

import numpy as np
import pytest
import scipy.stats

import losscost as lc
from losscost.simulate import _rng_for
from conftest import k1_instance, k2_reference, random_instance


def _prices(classes, space):
    dist = lc.stationary(space, classes)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    return dist, lc.shadow_prices(costs, space)


def test_deterministic_given_seed():
    classes, space = k1_instance()
    dist, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=50.0, replications=20, seed=123, record_bills=True)
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
    cfg = lc.SimConfig(horizon=t, replications=reps, seed=5, record_bills=True, warmup=10.0)
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


def test_empirical_bill_requires_recording():
    classes, space = k1_instance()
    res = lc.simulate(space, classes, lc.SimConfig(horizon=10.0, replications=2, seed=1))
    with pytest.raises(lc.ModelError):
        lc.empirical_bill_hist(res, 0)


def test_batch_means_se_reasonable():
    from losscost.simulate import batch_means_se

    rng = np.random.default_rng(0)
    iid = rng.normal(size=4096)
    est = batch_means_se(iid, batches=32)
    assert est == pytest.approx(1.0 / np.sqrt(4096), rel=0.5)


def test_zero_cost_bills_are_zero():
    classes = (lc.TrafficClass(lam=1.0, mu=1.0, omega=0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist, prices = _prices(classes, space)
    cfg = lc.SimConfig(horizon=50.0, replications=5, seed=6, record_bills=True)
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


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
def test_sim_config_rejects_bad_horizon(t):
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.SimConfig(horizon=t)
