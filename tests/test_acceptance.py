"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with -s to see them).  Desk scale throughout: K <= 3,
capacities <= 20, state spaces well under 10^4.
"""

import math

import numpy as np
import pytest
import scipy.stats

import losscost as lc
from losscost import costdist as cd
from losscost import howard as hw
from conftest import k1_instance, k2_reference, loop_simple_costs, random_instance


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_product_form_global_balance():
    rng = np.random.default_rng(101)
    worst_resid, worst_norm = 0.0, 0.0
    for _ in range(20):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        Q = lc.build_generator(space, classes)
        worst_resid = max(worst_resid, float(np.max(np.abs(dist.pi @ Q))))
        worst_norm = max(worst_norm, abs(float(dist.pi.sum()) - 1.0))
    _report(
        "criterion 1: product form solves global balance on 20 random instances",
        worst_resid <= 1e-10 and worst_norm <= 1e-12,
        f"max |pi Q| = {worst_resid:.2e}, max |sum pi - 1| = {worst_norm:.2e}",
    )


def test_criterion_2_relative_cost_exactness():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(12):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        worst = max(worst, costs.residual)
    gap = 0.0
    for _ in range(8):
        classes, space = random_instance(rng, symmetric=True)
        assert len(space) <= 500
        dist = lc.stationary(space, classes)
        exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        closed = lc.symmetric_relative_costs(space, classes, dist.g)
        gap = max(gap, float(np.max(np.abs(closed.v - exact.v))))
    _report(
        "criterion 2: dense solve residual <= 1e-8; symmetric closed form matches",
        worst <= 1e-8 and gap <= 1e-8,
        f"max residual = {worst:.2e}, max closed-form gap = {gap:.2e}",
    )


def test_criterion_3_series_completion_documented():
    # the one-class quasi-inverse identity itself must hold tightly
    rng = np.random.default_rng(303)
    lam, mu = 1.3, 0.7
    f = rng.uniform(-1.0, 1.0, size=9)
    h = hw._quasi_inverse(9, lam / mu) @ f / mu
    d = hw._delta_k(h, 0, lam, mu)
    ident = float(np.max(np.abs(d - f)[:-1]))  # top layer excluded
    assert ident <= 1e-10

    asymmetric = [
        ((1.0, 1.0), (1.0, 2.0), 3),
        ((1.0, 0.5), (1.0, 3.0), 4),
        ((2.0, 0.7), (0.5, 1.0), 4),
        ((0.8, 1.2), (2.0, 0.9), 5),
        ((1.5, 0.4), (1.0, 1.6), 3),
    ]
    outcomes = []
    all_ok = True
    for lams, mus, C in asymmetric:
        classes = tuple(lc.TrafficClass(l, m, 1, 1) for l, m in zip(lams, mus))
        space = lc.enumerate_states(classes, lc.FullSharing(capacity=C))
        dist = lc.stationary(space, classes)
        res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
        improved = res.residual_history[-1] <= 0.1 * res.residual_history[0]
        flagged = (not res.converged) and bool(res.message)
        outcomes.append(
            f"lam={lams} mu={mus}: {res.residual_history[0]:.3f}->{res.residual_history[-1]:.3f} "
            + ("improved 10x" if improved else f"flagged ({res.message})")
        )
        all_ok = all_ok and (improved or flagged)
    for line in outcomes:
        print("      series:", line)
    _report(
        "criterion 3: series completion improves 10x or is flagged; identity at 1e-10",
        all_ok,
        f"identity error = {ident:.2e}",
    )


def test_criterion_4_discrete_closed_form_consistency():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t, steps, r_max = 2.0, 64, 40
    mass, _ = loop_simple_costs(space, classes, t, steps, r_max)
    worst = max(
        abs(mass[i, r] - lc.closed_form_discrete(space, classes, steps, t / steps, i, r, dist=dist))
        for i in range(len(space))
        for r in range(r_max + 1)
    )
    i = space.index[(2, 1)]
    ns = [2 ** k for k in range(8, 15)]
    errs = [
        max(
            abs(
                lc.closed_form_discrete(space, classes, n, 5.0 / n, i, r, dist=dist)
                - lc.closed_form_continuous(space, classes, 5.0, i, r, dist=dist)
            )
            for r in range(12)
        )
        for n in ns
    ]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    _report(
        "criterion 4: recursion matches discrete closed form; continuous limit at order 1/N",
        worst <= 1e-6 and abs(slope + 1.0) <= 0.15,
        f"entrywise gap = {worst:.2e}, empirical order = {slope:.3f}",
    )


def test_criterion_5_mean_identities():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t = 2.0
    worst = 0.0
    for i in range(len(space)):
        mean = sum(
            r * lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
            for r in range(200)
        )
        worst = max(worst, abs(mean - t * dist.r[i] * dist.pi[i]))

    classes5 = (lc.TrafficClass(1.5, 1.0, 1, 1), lc.TrafficClass(0.8, 1.0, 2, 2))
    space5 = lc.enumerate_states(classes5, lc.FullSharing(capacity=4))
    dist5 = lc.stationary(space5, classes5)
    t5 = 50.0 / min(c.mu for c in classes5)
    rate = cd.max_outflow_rate(space5, classes5)
    steps = int(math.ceil(t5 * rate / cd.STEP_LIMIT))
    bound = t5 * sum(c.lam * c.omega for c in classes5)
    grid = lc.evolve_shadow_costs(space5, classes5, t5, steps, int(bound + 12 * math.sqrt(bound)), warn=False)
    rel = abs(grid.mean_cost() / t5 - dist5.g) / dist5.g
    _report(
        "criterion 5: per-state mean = t r(q) pi(q); trajectory mean within 2% of g",
        worst <= 1e-8 and rel <= 0.02,
        f"closed-form mean gap = {worst:.2e}, trajectory relative gap = {rel:.4f}",
    )


def test_criterion_6_special_case_laws():
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(0.7, 1.0, 1, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist = lc.stationary(space, classes)
    t = 1.3
    i = space.index[(1, 1)]
    rate = t * (classes[0].lam + classes[1].lam)
    gap_poisson = max(
        abs(
            lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
            - scipy.stats.poisson.pmf(r, rate) * dist.pi[i]
        )
        for r in range(20)
    )

    classes1, space1 = k1_instance()
    dist1 = lc.stationary(space1, classes1)
    n, dt = 80, 0.005
    j = space1.index[(2,)]
    mean = sum(r * lc.closed_form_discrete(space1, classes1, n, dt, j, r, dist=dist1) for r in range(n + 1))
    want = n * dt * classes1[0].omega * classes1[0].lam * dist1.pi[j]
    gap_binomial = abs(mean - want) / want
    _report(
        "criterion 6: blocked-pair law is Poisson(t(l1+l2)); one-class mean is n dt w l pi",
        gap_poisson <= 1e-10 and gap_binomial <= 1e-12,
        f"poisson gap = {gap_poisson:.2e}, binomial mean relative gap = {gap_binomial:.2e}",
    )


def test_criterion_7_monte_carlo_agreement():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    t, reps = 5.0, 100_000
    samples = lc.simulate_simple_total_costs(space, classes, t, replications=reps, seed=712)
    ref = lc.total_cost_distribution(space, classes, t)
    r_max = len(ref.mass) - 1
    counts = np.bincount(np.clip(samples, 0, r_max), minlength=r_max + 1).astype(float)
    expected = ref.mass * reps
    expected[r_max] += max(0.0, 1.0 - ref.mass.sum()) * reps
    # merge sparse tail bins so every expected count is at least 5
    keep = expected >= 5.0
    obs = np.concatenate([counts[keep], [counts[~keep].sum()]])
    exp = np.concatenate([expected[keep], [expected[~keep].sum()]])
    exp *= obs.sum() / exp.sum()
    chi2 = scipy.stats.chisquare(obs, exp)
    p_value = float(chi2.pvalue)

    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    prices = lc.shadow_prices(costs, space)
    bills = lc.bill_distribution(prices, dist.pi, space)
    n_reps = 600
    cfg = lc.SimConfig(horizon=60.0, replications=n_reps, seed=77, warmup=15.0)
    res = lc.simulate(space, classes, cfg, prices=prices)
    bills_ok = True
    worst_z = 0.0
    for k in range(space.K):
        reps_idx = res.bill_reps[k]
        counts = np.bincount(reps_idx, minlength=n_reps).astype(float)
        for price, mass in bills.per_class[k]:
            # pooled ratio estimator with a delta-method standard error from
            # per-replication influence terms (per-replication fractions
            # would carry a small-sample ratio bias)
            hit = (np.abs(res.bill_samples[k] - price) < 1e-9).astype(float)
            atom = np.bincount(reps_idx, weights=hit, minlength=n_reps)
            phat = atom.sum() / counts.sum()
            se = math.sqrt(float(np.sum((atom - phat * counts) ** 2))) / counts.sum()
            z = abs(phat - mass) / se if se > 0 else 0.0
            worst_z = max(worst_z, z)
            bills_ok = bills_ok and z <= 3.0
    _report(
        "criterion 7: cost histogram passes chi-square; bill masses within 3 SE",
        p_value > 0.01 and bills_ok,
        f"chi-square p = {p_value:.3f} at {reps} replications, worst bill z = {worst_z:.2f}",
    )


def test_criterion_8_cost_recursion_closed_form():
    rng = np.random.default_rng(808)
    done = 0
    worst = 0.0
    while done < 10:
        rho = float(rng.uniform(0.3, 3.0))
        a = float(rng.uniform(-2.0, 4.0))
        if abs((a - rho) - round(a - rho)) < 1e-3:
            continue
        sol = lc.recursion_solve(rho, a, q_max=20)
        f = [sol.f[0], sol.f[1]]
        for q in range(19):
            f.append((q + a) * f[q + 1] - rho * (q + 1) * f[q])
        worst = max(
            worst,
            max(abs(f[q] - sol.f[q]) / max(1.0, abs(sol.f[q])) for q in range(21)),
        )
        done += 1
    _report(
        "criterion 8: closed form matches forward iteration through q = 20",
        worst <= 1e-9,
        f"worst relative gap over 10 draws = {worst:.2e}",
    )


def test_criterion_9_product_form_is_not_the_trajectory_law():
    rng = np.random.default_rng(909)
    tested = 0
    ok = True
    magnitudes = []
    while tested < 8:
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        blocking = any(
            classes[j].omega > 0 and classes[j].lam > 0
            for i in range(len(space))
            for j in space.blocked_classes(i)
            if dist.pi[i] > 1e-12
        )
        if not blocking:
            continue
        report = lc.detailed_balance_counterexample(space, classes)
        ok = ok and report.found and report.magnitude > 1e-6
        magnitudes.append(report.magnitude)
        tested += 1
    _report(
        "criterion 9: balance violation > 1e-6 found on every blocking instance",
        ok,
        f"min violation over {tested} instances = {min(magnitudes):.2e}",
    )
