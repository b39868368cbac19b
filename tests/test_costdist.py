"""Cost-distribution recursions, closed forms, and the recursion solver."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

import losscost as lc
from losscost import costdist as cd
from conftest import k1_instance, k2_reference, loop_simple_costs, random_instance, random_model


def chain_marginal(space, classes, horizon, steps):
    """Oracle: evolve the occupancy chain alone with identical stepping."""
    Q = lc.build_generator(space, classes)
    dt = horizon / steps
    m = np.zeros(len(space))
    m[0] = 1.0
    for _ in range(steps):
        m = m + dt * (Q.T @ m)
    return m


def loop_shadow_costs(space, classes, horizon, steps, r_max):
    """Reference: the shadow-scheme step written out per class, walking the
    neighbour tables (fancy-index passes over blocked, predecessor and
    successor rows)."""
    dt = horizon / steps
    lam = np.array([c.lam for c in classes])
    mu = np.array([c.mu for c in classes])
    occ = space.occupancy
    mass = np.zeros((len(space), r_max + 1))
    mass[0, 0] = 1.0
    stay = 1.0 - dt * (lam.sum() + (occ * mu).sum(axis=1))
    leakage = 0.0
    for _ in range(steps):
        new = mass * stay[:, None]
        for j, c in enumerate(classes):
            blocked = ~space.admissible[:, j]
            if c.omega == 0:
                new[blocked] += dt * c.lam * mass[blocked]
            else:
                w = c.omega
                if w <= r_max:
                    new[blocked, w:] += dt * c.lam * mass[blocked, :-w]
                leakage += dt * c.lam * mass[blocked, max(0, r_max - w + 1):].sum()
            src = space.down[:, j] >= 0
            if src.any():
                pred = space.down[src, j]
                ok = space.admissible[pred, j]
                new[np.flatnonzero(src)[ok]] += dt * c.lam * mass[pred[ok]]
            has_up = space.up[:, j] >= 0
            if has_up.any():
                rate = mu[j] * (occ[has_up, j] + 1)
                new[np.flatnonzero(has_up)] += dt * rate[:, None] * mass[space.up[has_up, j]]
        mass = new
    return mass, leakage


def _kernel_cases(rng):
    """(classes, space, horizon, steps, r_max): random models, the reference
    pair, a lam = 0 class with a cost, a blocked zero-cost class and a cost
    wider than the whole lattice."""
    cases = []
    kinds = set()
    for _ in range(8):
        classes, policy = random_model(rng)
        kinds.add(type(policy))
        if len({c.bandwidth for c in classes}) > 1:
            kinds.add("mixed bandwidths")
        cases.append((classes, lc.enumerate_states(classes, policy), 1.5, None, 12))
    assert kinds == {lc.FullSharing, lc.PerClassThreshold, "mixed bandwidths"}
    classes, space = k2_reference()
    cases.append((classes, space, 3.0, None, 20))
    for classes, capacity, horizon, steps, r_max in [
        ((lc.TrafficClass(0.0, 1.0, 1, 2), lc.TrafficClass(1.0, 1.0, 1, 1)), 2, 2.0, None, 15),
        ((lc.TrafficClass(1.0, 1.0, 1, 0), lc.TrafficClass(0.7, 1.5, 2, 2)), 4, 2.0, None, 15),
        ((lc.TrafficClass(1.0, 1.0, 1, 5),), 1, 2.0, 200, 2),
    ]:
        cases.append((classes, lc.enumerate_states(classes, lc.FullSharing(capacity)),
                      horizon, steps, r_max))
    return [(classes, space, horizon,
             steps or int(math.ceil(horizon * cd.max_outflow_rate(space, classes) / cd.STEP_LIMIT)),
             r_max) for classes, space, horizon, steps, r_max in cases]


def test_step_operator_matches_loops(rng):
    for classes, space, horizon, steps, r_max in _kernel_cases(rng):
        for evolve, loop in ((lc.evolve_shadow_costs, loop_shadow_costs),
                             (lc.evolve_simple_costs, loop_simple_costs)):
            grid = evolve(space, classes, horizon, steps, r_max, warn=False)
            mass, leakage = loop(space, classes, horizon, steps, r_max)
            assert np.abs(grid.mass - mass).max() <= 1e-14
            assert abs(grid.leakage - leakage) <= 1e-14
            assert (grid.mass >= -1e-15).all()


def test_evolve_rejects_negative_r_max():
    classes, space = k1_instance()
    for evolve in (lc.evolve_shadow_costs, lc.evolve_simple_costs):
        with pytest.raises(lc.ModelError, match="r_max"):
            evolve(space, classes, 1.0, 10, -1)
    with pytest.raises(lc.ModelError, match="r_max"):
        lc.total_cost_distribution(space, classes, 1.0, r_max=-1)


def test_cost_lattice_cap(monkeypatch):
    # every lattice builder refuses states x (r_max + 1) past the cap
    classes, space = k1_instance()
    monkeypatch.setattr(cd, "LATTICE_CAP", 3 * 64)
    cd.closed_form_grid(space, classes, 1.0, 63)
    for build in (lambda: cd.closed_form_grid(space, classes, 1.0, 64),
                  lambda: lc.evolve_shadow_costs(space, classes, 1.0, 10, 64),
                  lambda: lc.evolve_simple_costs(space, classes, 1.0, 10, 64),
                  lambda: lc.total_cost_distribution(space, classes, 1.0, r_max=64)):
        with pytest.raises(lc.StateSpaceSizeError, match="r_max=64 "):
            build()


def test_total_cost_r_max_is_honoured():
    # an explicit truncation is kept, not grown: the law is the default one's
    # prefix, and the leak past it is reported and warned about
    classes, space = k1_instance()
    full = lc.total_cost_distribution(space, classes, 2.0)
    assert full.leakage <= cd.LEAKAGE_WARN
    for r_max in (0, 1):
        with pytest.warns(UserWarning, match=f"past r_max={r_max}$"):
            total = lc.total_cost_distribution(space, classes, 2.0, r_max=r_max)
        assert len(total.mass) == r_max + 1
        np.testing.assert_allclose(total.mass, full.mass[:r_max + 1], rtol=1e-14)
        assert total.leakage == pytest.approx(full.mass[r_max + 1:].sum(), rel=1e-12)
        assert total.leakage > cd.LEAKAGE_WARN
        assert total.q99 == r_max + 1


def test_default_r_max_bounds_every_scheme_leak():
    # Bennett's bound on the all-charging Poisson sum dominates the cost of
    # every scheme, so no scheme leaks past LEAKAGE_WARN at the default
    # truncation, also when one cost is far above the others
    rng = np.random.default_rng(23)
    for i in range(120):
        classes, policy = random_model(rng)
        t = 1.0
        if i % 2:
            classes = tuple(lc.TrafficClass(c.lam, c.mu, c.bandwidth, int(rng.choice([0, 1, 5, 40, 200])))
                            for c in classes)
            t = float(rng.choice([0.1, 1.0, 4.0]))
        space = lc.enumerate_states(classes, policy)
        r_max = cd.default_r_max(classes, t)
        steps = cd.default_steps(space, classes, t)
        for grid in (cd.closed_form_grid(space, classes, t, r_max),
                     lc.evolve_simple_costs(space, classes, t, steps, r_max),
                     lc.evolve_shadow_costs(space, classes, t, steps, r_max)):
            assert grid.leakage <= cd.LEAKAGE_WARN, (i, classes, t)


def test_default_r_max_keeps_its_floor():
    # the floor mean + 10 sqrt(mean + 1) still decides where it is larger,
    # as at the risk shapes (mean 17 and 12 of costs 1, 2, 3); Bennett's
    # point decides when one cost dominates the spread
    band = [lc.TrafficClass(lam, 1.0, b, b) for lam, b in ((4.0, 1), (2.0, 2), (1.0, 3))]
    assert cd.default_r_max(band, 17.0 / 11.0) == 61
    assert cd.default_r_max(band, 12.0 / 11.0) == 50
    wide = [lc.TrafficClass(0.5, 1.0, 1, 100), lc.TrafficClass(1.0, 1.0, 1, 1)]
    assert cd.default_r_max(wide, 2.0) == 993
    assert cd.default_r_max([lc.TrafficClass(1.0, 1.0, 1, 0)], 3.0) == 11


def test_shadow_zero_cost_is_pure_chain():
    classes = (
        lc.TrafficClass(1.0, 1.0, 1, 0),
        lc.TrafficClass(0.5, 2.0, 1, 0),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    grid = lc.evolve_shadow_costs(space, classes, 2.0, 200, 5)
    assert np.all(grid.mass[:, 1:] == 0.0)
    np.testing.assert_allclose(grid.marginal, chain_marginal(space, classes, 2.0, 200), atol=1e-10)


def test_shadow_marginal_matches_chain():
    classes, space = k2_reference()
    grid = lc.evolve_shadow_costs(space, classes, 3.0, 300, 60)
    np.testing.assert_allclose(grid.marginal, chain_marginal(space, classes, 3.0, 300), atol=1e-10)


def test_mass_conservation_both_schemes():
    classes, space = k2_reference()
    for evolve in (lc.evolve_shadow_costs, lc.evolve_simple_costs):
        grid = evolve(space, classes, 4.0, 400, 25, warn=False)
        assert grid.mass.sum() + grid.leakage == pytest.approx(1.0, abs=1e-9)
        assert (grid.mass >= -1e-15).all()


def test_shadow_mean_approaches_cost_rate():
    # long horizon: accumulated cost per unit time converges to g; at
    # 50 mean holding times the residual transient sits inside 2%
    classes = (
        lc.TrafficClass(1.5, 1.0, 1, 1),
        lc.TrafficClass(0.8, 1.0, 2, 2),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
    dist = lc.stationary(space, classes)
    t = 50.0 / min(c.mu for c in classes)
    rate = cd.max_outflow_rate(space, classes)
    steps = int(math.ceil(t * rate / cd.STEP_LIMIT))
    bound = t * sum(c.lam * c.omega for c in classes)
    r_max = int(bound + 12 * math.sqrt(bound))
    grid = lc.evolve_shadow_costs(space, classes, t, steps, r_max, warn=False)
    assert grid.mean_cost() / t == pytest.approx(dist.g, rel=0.02)


def test_shadow_mean_matches_monte_carlo():
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    grid = lc.evolve_shadow_costs(space, classes, 10.0, 400, 40)
    cfg = lc.SimConfig(horizon=10.0, replications=4000, seed=11)
    res = lc.simulate(space, classes, cfg)
    se = res.mean_cost_se()
    assert abs(grid.mean_cost() - res.mean_cost()) <= 3.0 * se


def test_simple_marginal_stays_stationary():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    grid = lc.evolve_simple_costs(space, classes, 2.0, 250, 40)
    np.testing.assert_allclose(grid.marginal, dist.pi, atol=1e-10)


def test_simple_evolution_matches_discrete_closed_form():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t, steps, r_max = 2.0, 64, 40
    grid = lc.evolve_simple_costs(space, classes, t, steps, r_max)
    worst = 0.0
    for i in range(len(space)):
        for r in range(r_max + 1):
            ref = lc.closed_form_discrete(space, classes, steps, t / steps, i, r, dist=dist)
            worst = max(worst, abs(grid.mass[i, r] - ref))
    assert worst <= 1e-6


def test_simple_evolution_matches_discrete_closed_form_under_leakage():
    # truncation leaks a fifth of the mass; each state's column still
    # evolves on its own, so the kept cells are the truncated closed form
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t, steps, r_max = 4.0, 400, 4
    grid = lc.evolve_simple_costs(space, classes, t, steps, r_max, warn=False)
    assert grid.leakage > 0.1
    for i in range(len(space)):
        for r in range(r_max + 1):
            ref = lc.closed_form_discrete(space, classes, steps, t / steps, i, r, dist=dist)
            assert abs(grid.mass[i, r] - ref) <= 1e-12


def test_closed_form_grid_matches_cells():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    grid = cd.closed_form_grid(space, classes, 2.0, 30, dist=dist)
    assert grid.mass.shape == (len(space), 31)
    for i in range(len(space)):
        for r in range(31):
            assert grid.mass[i, r] == pytest.approx(
                lc.closed_form_continuous(space, classes, 2.0, i, r, dist=dist), rel=1e-13, abs=1e-300)
    assert grid.leakage == pytest.approx(1.0 - grid.mass.sum(), abs=1e-15)


def test_non_blocking_states_never_charge():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    grid = lc.evolve_simple_costs(space, classes, 2.0, 100, 30)
    for i in range(len(space)):
        if space.admissible[i].all():
            assert np.all(grid.mass[i, 1:] == 0.0)
            for r in range(1, 6):
                assert lc.closed_form_discrete(space, classes, 100, 0.02, i, r, dist=dist) == 0.0
                assert lc.closed_form_continuous(space, classes, 2.0, i, r, dist=dist) == 0.0


def test_discrete_zero_cost_entry():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    n, dt = 50, 0.01
    i = space.index[(2,)]  # the blocking state
    lam_blocked = classes[0].lam
    want = (1.0 - dt * lam_blocked) ** n * dist.pi[i]
    assert lc.closed_form_discrete(space, classes, n, dt, i, 0, dist=dist) == pytest.approx(want, rel=1e-12)


def test_discrete_certain_charge_every_step():
    # step * lam = 1: the blocking state charges on every one of the n steps
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    i = space.index[(2,)]
    for r in range(5):
        want = dist.pi[i] if r == 3 else 0.0
        assert lc.closed_form_discrete(space, classes, 3, 1.0, i, r, dist=dist) == want
    with pytest.raises(cd.StepSizeError):
        lc.closed_form_discrete(space, classes, 3, 1.5, i, 3, dist=dist)


def test_long_horizon_laws_survive_underflow():
    # t lam = 1000: the probability of no charge, exp(-1000) or 0.5^2000,
    # underflows, yet the cells near the mean are of order 1e-2
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    i = space.index[(2,)]
    t, r_max = 1000.0, 1300
    grid = cd.closed_form_grid(space, classes, t, r_max, dist=dist)
    want = dist.pi[i] * scipy.stats.poisson.pmf(np.arange(r_max + 1), t)
    np.testing.assert_allclose(grid.mass[i], want, rtol=1e-9, atol=1e-300)
    assert grid.mass[i, 1000] > 1e-3
    assert lc.closed_form_continuous(space, classes, t, i, 1000, dist=dist) == pytest.approx(
        want[1000], rel=1e-9)
    assert lc.closed_form_continuous(space, classes, t, 0, 0, dist=dist) == dist.pi[0]
    total = lc.total_cost_distribution(space, classes, t=t)
    assert total.mean == pytest.approx(t * dist.g, rel=1e-9)
    for r in (0, 900, 1000, 1100):
        want = scipy.stats.binom.pmf(r, 2000, 0.5) * dist.pi[i]
        got = lc.closed_form_discrete(space, classes, 2000, 0.5, i, r, dist=dist)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_poisson_law_exact_at_large_means():
    # every cell to 1e-9 relative against mpmath at the mode and mode + 5
    # sd, and the mass to 1e-9; a recursion over r drifts past that here
    # (Panjer: 9.1e-9 at mean 1e5, 5.0e-7 at 5e5, 4.5e-8 on the K=2 mass)
    with mp.workdps(40):
        for mean in (1e5, 5e5):
            sd = math.sqrt(mean)
            law = cd._poisson_law(1.0, math.ceil(mean + 10 * sd), np.array([mean]), np.array([1]))
            for k in (int(mean), math.ceil(mean + 5 * sd)):
                want = mp.exp(k * mp.log(mean) - mean - mp.loggamma(k + 1))
                assert abs(law[k] / want - 1) <= 1e-9
            assert abs(math.fsum(law) - 1.0) <= 1e-9
    # two classes on costs 1 and 2: mean 2e5, sd 548
    law = cd._poisson_law(50.0, 205_478, np.array([2000.0, 1000.0]), np.array([1, 2]))
    assert abs(math.fsum(law) - 1.0) <= 1e-9


def test_continuous_mixed_costs_match_poisson_convolution():
    # costs 1, 2, 3: reference law of sum_j omega_j N_j by convolving the
    # Poisson laws of the charging classes, scaled onto the cost lattice
    classes = (lc.TrafficClass(4.0, 1.0, 1, 1), lc.TrafficClass(2.0, 1.0, 2, 2),
               lc.TrafficClass(1.0, 1.0, 3, 3))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=20))
    dist = lc.stationary(space, classes)
    t, r_max = 2.0, 40
    grid = cd.closed_form_grid(space, classes, t, r_max, dist=dist)
    masks = set()
    for i in range(len(space)):
        ref = np.zeros(r_max + 1)
        ref[0] = 1.0
        for j, c in enumerate(classes):
            if space.admissible[i, j]:
                continue
            law = np.zeros(r_max + 1)
            law[::c.omega] = scipy.stats.poisson.pmf(np.arange(len(law[::c.omega])), t * c.lam)
            ref = np.convolve(ref, law)[:r_max + 1]
        masks.add(tuple(space.admissible[i]))
        np.testing.assert_allclose(grid.mass[i], dist.pi[i] * ref, rtol=1e-12, atol=1e-17)
    assert len(masks) == 4


def test_discrete_single_class_is_binomial():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    n, dt = 80, 0.005
    i = space.index[(2,)]
    p = dt * classes[0].lam
    for r in range(12):
        want = scipy.stats.binom.pmf(r, n, p) * dist.pi[i]
        got = lc.closed_form_discrete(space, classes, n, dt, i, r, dist=dist)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
    # mean of the binomial law times omega
    mean = sum(r * lc.closed_form_discrete(space, classes, n, dt, i, r, dist=dist) for r in range(n + 1))
    assert mean == pytest.approx(n * dt * classes[0].omega * classes[0].lam * dist.pi[i], rel=1e-10)


def test_continuous_two_blocked_classes_poisson():
    classes = (
        lc.TrafficClass(1.0, 1.0, 1, 1),
        lc.TrafficClass(0.7, 1.0, 1, 1),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist = lc.stationary(space, classes)
    t = 1.3
    i = space.index[(1, 1)]  # both classes blocked, unit costs
    total = classes[0].lam + classes[1].lam
    for r in range(15):
        want = scipy.stats.poisson.pmf(r, t * total) * dist.pi[i]
        got = lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
        assert abs(got - want) <= 1e-10


def test_continuous_sums_to_marginal_and_mean():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t = 2.0
    for i in range(len(space)):
        vals = [lc.closed_form_continuous(space, classes, t, i, r, dist=dist) for r in range(200)]
        assert sum(vals) == pytest.approx(dist.pi[i], abs=1e-10)
        mean = sum(r * v for r, v in enumerate(vals))
        assert mean == pytest.approx(t * dist.r[i] * dist.pi[i], abs=1e-8)


def test_discrete_converges_to_continuous_at_rate_one_over_n():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t = 5.0
    i = space.index[(2, 1)]
    errs = []
    ns = [2 ** k for k in range(8, 15)]
    for n in ns:
        e = max(
            abs(
                lc.closed_form_discrete(space, classes, n, t / n, i, r, dist=dist)
                - lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
            )
            for r in range(12)
        )
        errs.append(e)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_total_cost_mean_and_quantiles():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    total = lc.total_cost_distribution(space, classes, t=2.0)
    assert total.mean == pytest.approx(2.0 * dist.g, abs=1e-8)
    assert total.leakage <= 1e-6
    cum = np.cumsum(total.mass)
    assert cum[total.q95] >= 0.95
    assert total.q95 <= total.q99


def test_total_cost_zero_costs_point_mass():
    classes = (lc.TrafficClass(1.0, 1.0, 1, 0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    total = lc.total_cost_distribution(space, classes, t=3.0)
    assert total.mass[0] == pytest.approx(1.0, abs=1e-12)
    assert total.mean == 0.0


def test_step_size_guard():
    classes, space = k1_instance()
    with pytest.raises(cd.StepSizeError):
        lc.evolve_shadow_costs(space, classes, 10.0, 10, 10)
    # the default is the smallest valid count: peak rate 3, so 10 * 3 / 0.5
    assert cd.default_steps(space, classes, 10.0) == 60
    lc.evolve_shadow_costs(space, classes, 10.0, 60, 10, warn=False)
    with pytest.raises(cd.StepSizeError, match="use at least 60 steps"):
        lc.evolve_shadow_costs(space, classes, 10.0, 59, 10)
    # t times the rates overflows: no default exists, and the guard's
    # message cannot name one
    huge = (lc.TrafficClass(1e308, 1.0, 1, 1),)
    space = lc.enumerate_states(huge, lc.FullSharing(capacity=3))
    for call in (lambda: cd.default_steps(space, huge, 5.0), lambda: cd.default_r_max(huge, 5.0),
                 lambda: lc.evolve_simple_costs(space, huge, 5.0, 10, 10)):
        with pytest.raises(lc.ModelError, match="not finite"):
            call()


def test_true_leak_at_large_mean_is_seen():
    # one circuit at lam = 1e5: the blocked state pays Poisson(1e5) costs,
    # and a truncation at their 2e-6 upper quantile leaks pi(1) * 2e-6,
    # above LEAKAGE_WARN, which the risk law reports and warns about
    classes = (lc.TrafficClass(lam=1e5, mu=1e-3, bandwidth=1, omega=1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    r_max = int(scipy.stats.poisson.isf(2e-6, 1e5))
    assert r_max == 101_462
    pi = lc.stationary(space, classes).pi
    grid = cd.closed_form_grid(space, classes, 1.0, r_max)
    assert grid.leakage == pytest.approx(pi[1] * scipy.stats.poisson.sf(r_max, 1e5), rel=1e-4)
    assert grid.leakage > cd.LEAKAGE_WARN
    with pytest.warns(UserWarning, match=f"past r_max={r_max}$"):
        total = lc.total_cost_distribution(space, classes, 1.0, r_max=r_max)
    assert len(total.mass) - 1 == r_max
    assert total.leakage == pytest.approx(grid.leakage, rel=1e-9)


def test_leakage_warning():
    classes, space = k1_instance()
    with pytest.warns(UserWarning, match="leaked"):
        lc.evolve_shadow_costs(space, classes, 20.0, 400, 2)


def test_balance_counterexample_found():
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    dist = lc.stationary(space, classes)
    report = lc.detailed_balance_counterexample(space, classes, t=1.0)
    assert report.found
    assert report.magnitude > 1e-6
    # some violation exists at r >= 1 across the empty -> full boundary
    t = 1.0
    lhs = classes[0].mu * 1 * lc.closed_form_continuous(space, classes, t, 1, 1, dist=dist)
    rhs = classes[0].lam * lc.closed_form_continuous(space, classes, t, 0, 1, dist=dist)
    assert abs(lhs - rhs) > 1e-6


def test_balance_search_matches_cellwise_loop(rng):
    # reference: scan (state, class, r) in order, keeping the first strict
    # maximum above tol, from per-cell closed-form values
    for _ in range(6):
        classes, space = random_instance(rng, max_capacity=6)
        dist = lc.stationary(space, classes)
        t, r_limit = 1.0, 8
        best = (0.0, None)
        for i in range(len(space)):
            for k in range(space.K):
                u = space.up[i, k]
                if u < 0:
                    continue
                for r in range(r_limit + 1):
                    lhs = classes[k].mu * (space.states[i][k] + 1) * lc.closed_form_continuous(
                        space, classes, t, u, r, dist=dist)
                    rhs = classes[k].lam * lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
                    if abs(lhs - rhs) > max(best[0], 1e-9):
                        best = (abs(lhs - rhs), (i, k, r))
        report = lc.detailed_balance_counterexample(space, classes, t=t, r_limit=r_limit)
        assert report.found == (best[1] is not None)
        if report.found:
            assert (report.state, report.cls, report.r) == best[1]
            assert report.magnitude == pytest.approx(best[0], rel=1e-12)


def test_balance_holds_without_blocking():
    # capacity far above what thresholds allow: nothing ever blocks... use a
    # per-class policy none of whose states block except the very top, then
    # drop omega so charges vanish
    classes = (lc.TrafficClass(1.0, 1.0, 1, 0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=6))
    report = lc.detailed_balance_counterexample(space, classes)
    assert not report.found


def _worst_rel_residual(sol, upto):
    worst = 0.0
    for q in range(upto - 1):
        scale = max(abs(sol.f[q]), abs(sol.f[q + 1]), abs(sol.f[q + 2]), 1.0)
        worst = max(worst, abs(sol.residual(q)) / scale)
    return worst


def test_recursion_solver_residual():
    sol = lc.recursion_solve(1.5, 0.7, q_max=22)
    assert _worst_rel_residual(sol, 21) <= 1e-9
    assert sol.gamma[0] == 1.0
    assert sol.alpha[0] == pytest.approx(1.5 * (1.5 + 2 - 0.7))


def test_recursion_solver_boundary_relation():
    # the recursion instance at q = -1 with f vanishing below zero forces
    # f(1) = (a - 1) f(0)
    for rho, a in [(1.5, 0.7), (0.6, 3.3), (2.5, 0.25)]:
        sol = lc.recursion_solve(rho, a, q_max=3)
        assert sol.f[1] == pytest.approx((a - 1.0) * sol.f[0], rel=1e-10)


def test_recursion_solver_scale_linearity():
    base = lc.recursion_solve(1.5, 0.7, q_max=10, gamma1=1.0)
    double = lc.recursion_solve(1.5, 0.7, q_max=10, gamma1=2.0)
    np.testing.assert_allclose(double.f, 2.0 * np.array(base.f), rtol=1e-12)
    np.testing.assert_allclose(double.gamma[:5], 2.0 * np.array(base.gamma[:5]), rtol=1e-12)


def test_recursion_solver_matches_forward_iteration():
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        rho = float(rng.uniform(0.3, 3.0))
        a = float(rng.uniform(-2.0, 4.0))
        if abs((a - rho) - round(a - rho)) < 1e-3:
            continue
        sol = lc.recursion_solve(rho, a, q_max=20)
        f = [sol.f[0], sol.f[1]]
        for q in range(19):
            f.append((q + a) * f[q + 1] - rho * (q + 1) * f[q])
        for q in range(21):
            assert abs(f[q] - sol.f[q]) <= 1e-9 * max(1.0, abs(sol.f[q]))
        done += 1


def test_recursion_solver_hypothesis_checks():
    with pytest.raises(lc.ModelError):
        lc.recursion_solve(0.0, 1.5, q_max=5)
    with pytest.raises(lc.ModelError):
        lc.recursion_solve(1.5, 3.5, q_max=5)  # a - rho = 2, an integer
    with pytest.raises(lc.ModelError):
        lc.recursion_solve(1.5, 0.7, q_max=5, gamma1=0.0)


def test_cost_exceeding_truncation_leaks_fully():
    # omega larger than the whole cost lattice: every charge leaks, and the
    # accounting must still balance
    classes = (lc.TrafficClass(1.0, 1.0, 1, 5),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=1))
    for evolve in (lc.evolve_shadow_costs, lc.evolve_simple_costs):
        grid = evolve(space, classes, 2.0, 200, 2, warn=False)
        assert grid.mass.sum() + grid.leakage == pytest.approx(1.0, abs=1e-9)
        assert grid.leakage > 0.1
        assert np.all(grid.mass[:, 1:] == 0.0)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_closed_forms_reject_bad_horizon(t):
    classes, space = k1_instance()
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.total_cost_distribution(space, classes, t)
    with pytest.raises(lc.ModelError, match="horizon"):
        cd.closed_form_grid(space, classes, t, 5)
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.closed_form_continuous(space, classes, t, 2, 1)
    with pytest.raises(lc.ModelError, match="horizon"):
        lc.evolve_simple_costs(space, classes, t, 10, 5)
