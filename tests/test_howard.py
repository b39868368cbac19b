"""Relative costs: exact solve, closed forms, series completion, prices, bills."""

import math

import numpy as np
import pytest

import losscost as lc
from losscost import howard as hw
from conftest import heavy_instance, k1_instance, k2_reference, random_instance


# Reference forms: the closed forms and the series start evaluated one state
# at a time by the double-sum loop, as the library once computed them.  The
# library's per-state and whole-space names share one kernel, so these are
# what both are checked against.


def _double_sum(q, rho):
    # sum_{i=1}^{q} sum_{m=0}^{q-i} (q-i)!/(q-i-m)! * rho^-m
    inv = 1.0 / rho
    total = 0.0
    s = 1.0
    for p in range(q):
        if p > 0:
            s = 1.0 + p * inv * s
        total += s
    return total


def _loop_symmetric(q, g, mu, rho):
    if q == 0 or rho == 0.0:
        return 0.0
    return g / (mu * rho) * _double_sum(q, rho)


def _loop_equal_bandwidth(q, classes, g):
    total = sum(q)
    rho = sum(c.rho for c in classes)
    if total == 0 or rho == 0.0:
        return 0.0
    ds = _double_sum(total, rho)
    return sum((qj / total) * g / (c.mu * rho) * ds for qj, c in zip(q, classes) if qj > 0)


def _loop_general(q, classes, g):
    c = sum(qj * cl.bandwidth for qj, cl in zip(q, classes))
    if c == 0:
        return 0.0
    b = sum(cl.bandwidth for cl in classes)
    rho = sum(cl.rho * (cl.bandwidth / b) ** 2 for cl in classes)
    if rho == 0.0:
        return 0.0
    out = 0.0
    for qj, cl in zip(q, classes):
        if qj == 0:
            continue
        rho_j = (b / cl.bandwidth) ** 2 * rho
        level = c // cl.bandwidth
        out += ((cl.bandwidth * qj / c) * (cl.bandwidth / b) ** 2 * g / (cl.mu * rho)
                * _double_sum(level, rho_j))
    return out


def _loop_series_start(classes):
    # the series completion's default start u(q) = D(total q) / (rho sum_j mu_j)
    rho = sum(c.rho for c in classes)
    mu_sum = sum(c.mu for c in classes)

    def u(q):
        total = sum(q)
        if total == 0:
            return 0.0
        return _double_sum(total, rho) / (rho * mu_sum)

    return u


def _solved(classes, space):
    dist = lc.stationary(space, classes)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    return dist, costs


def test_exact_solve_reference():
    classes, space = k1_instance()
    dist, costs = _solved(classes, space)
    np.testing.assert_allclose(costs.v, [0.0, 0.2, 0.6], atol=1e-12)
    assert costs.residual <= 1e-8
    assert costs.v[costs.anchor] == 0.0


def test_zero_cost_gives_zero_relative_cost():
    classes = (lc.TrafficClass(lam=1.0, mu=1.0, omega=0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist, costs = _solved(classes, space)
    np.testing.assert_allclose(costs.v, 0.0, atol=1e-12)


def test_exact_solve_residual_on_random_instances(rng):
    for _ in range(12):
        classes, space = random_instance(rng)
        dist, costs = _solved(classes, space)
        assert costs.residual <= 1e-8
        assert hw.howard_residual(space, classes, costs.v, dist.g, dist.r) <= 1e-8


def test_exact_solve_heavy_load_matches_closed_form():
    # pi(empty) is tiny here: dropping the empty state's equation scaled the
    # residual of the others by 1/pi(empty) and failed RESIDUAL_TOL
    classes, space = heavy_instance(40)
    dist = lc.stationary(space, classes)
    exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    closed = lc.symmetric_relative_costs(space, classes, dist.g)
    assert exact.residual <= hw.RESIDUAL_TOL
    assert exact.anchor == 0 and exact.v[0] == 0.0
    np.testing.assert_allclose(exact.v, closed.v, rtol=1e-10, atol=0.0)


def test_symmetric_relative_costs_match_scalar_form(rng):
    for _ in range(6):
        classes, space = random_instance(rng, symmetric=True)
        dist = lc.stationary(space, classes)
        rho = sum(c.rho for c in classes)
        want = [_loop_symmetric(sum(q), dist.g, classes[0].mu, rho) for q in space.states]
        assert np.array_equal(lc.symmetric_relative_costs(space, classes, dist.g).v, want)
        got = [lc.relative_cost_symmetric(sum(q), dist.g, classes[0].mu, rho) for q in space.states]
        assert got == want


def test_total_tables_match_scalar_sums():
    for rho in (0.3, 2.0, 17.5):
        E, D = hw._total_tables(60, rho)
        assert np.array_equal(D, [_double_sum(t, rho) for t in range(61)])
        # E is the load increment: rho E(t+1) - t E(t) = 1, up to rounding
        # of the two terms
        t = np.arange(60)
        err = np.abs(rho * E[1:] - t * E[:-1] - 1.0)
        assert np.all(err <= 1e-13 * (1.0 + rho * E[1:]))


def test_symmetric_closed_form_scalar():
    assert lc.relative_cost_symmetric(0, g=0.3, mu=1.0, rho=2.0) == 0.0
    # a single call: g / (mu rho)
    assert lc.relative_cost_symmetric(1, g=0.3, mu=0.5, rho=2.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        lc.relative_cost_symmetric(-1, g=0.3, mu=1.0, rho=2.0)


def test_symmetric_closed_form_matches_exact_solver(rng):
    for _ in range(8):
        classes, space = random_instance(rng, symmetric=True)
        dist = lc.stationary(space, classes)
        exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        closed = lc.symmetric_relative_costs(space, classes, dist.g)
        np.testing.assert_allclose(closed.v, exact.v, atol=1e-8)


def test_symmetric_closed_form_rejects_asymmetric():
    classes = (lc.TrafficClass(1.0, 1.0), lc.TrafficClass(1.0, 2.0))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    with pytest.raises(lc.ModelError):
        lc.symmetric_relative_costs(space, classes, g=0.1)


def test_equal_bandwidth_approx_reduces_when_rates_equal():
    classes = tuple(lc.TrafficClass(lam, 1.5, 1, 1) for lam in (1.0, 0.5))
    rho = sum(c.rho for c in classes)
    g = 0.37
    for q in [(0, 0), (1, 0), (1, 2), (3, 1)]:
        want = lc.relative_cost_symmetric(sum(q), g, 1.5, rho)
        assert lc.relative_cost_equal_bandwidth_approx(q, classes, g) == pytest.approx(want, rel=1e-12)


def test_equal_bandwidth_approx_zero_state():
    classes = (lc.TrafficClass(1.0, 1.0), lc.TrafficClass(1.0, 2.0))
    assert lc.relative_cost_equal_bandwidth_approx((0, 0), classes, g=0.5) == 0.0


def test_closed_forms_at_zero_load():
    classes = (lc.TrafficClass(0.0, 1.0, 1, 1), lc.TrafficClass(0.0, 2.0, 1, 2))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    assert lc.relative_cost_symmetric(3, 0.0, 1.0, 0.0) == 0.0
    assert lc.relative_cost_equal_bandwidth_approx((1, 2), classes, 0.0) == 0.0
    assert not lc.equal_bandwidth_relative_costs(space, classes, 0.0).v.any()
    same_mu = (classes[0], classes[0])
    assert not lc.symmetric_relative_costs(space, same_mu, 0.0).v.any()


def test_equal_bandwidth_approx_beats_zero_guess():
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(1.0, 2.0, 1, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    dist = lc.stationary(space, classes)
    v = np.array([lc.relative_cost_equal_bandwidth_approx(q, classes, dist.g) for q in space.states])
    approx = hw.howard_residual(space, classes, v, dist.g, dist.r)
    naive = hw.howard_residual(space, classes, np.zeros(len(space)), dist.g, dist.r)
    assert approx < naive


def test_general_approx_matches_symmetric_single_class():
    classes = (lc.TrafficClass(1.3, 0.7, 2, 1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=8))
    dist = lc.stationary(space, classes)
    for q in space.states:
        want = lc.relative_cost_symmetric(q[0], dist.g, 0.7, 1.3 / 0.7)
        got = lc.relative_cost_general_approx(q, classes, dist.g)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_general_approx_zero_state_and_finite_residual():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    assert lc.relative_cost_general_approx((0, 0), classes, dist.g) == 0.0
    v = np.array([lc.relative_cost_general_approx(q, classes, dist.g) for q in space.states])
    res = hw.howard_residual(space, classes, v, dist.g, dist.r)
    assert math.isfinite(res)  # no accuracy claim, only a measured residual


def test_vectorised_approximations_match_scalar_forms(rng):
    # the whole-space and per-state names both give, bit for bit, the
    # reference loops evaluated state by state; the symmetric instances get
    # unequal service rates (the state space does not depend on them) so
    # that equal-bandwidth is not the closed form
    zero_load = (lc.TrafficClass(0.0, 1.0, 1, 1), lc.TrafficClass(0.0, 2.0, 1, 2))
    one_class = (lc.TrafficClass(1.3, 0.7, 2, 1),)
    mixed = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(0.5, 2.0, 2, 2),
             lc.TrafficClass(0.8, 0.6, 3, 3))
    equal_b = (lc.TrafficClass(1.0, 1.0, 2, 1), lc.TrafficClass(0.5, 2.0, 2, 2))
    special = [
        (zero_load, lc.enumerate_states(zero_load, lc.FullSharing(capacity=3))),
        (one_class, lc.enumerate_states(one_class, lc.FullSharing(capacity=9))),
    ]
    cases = special + [heavy_instance(12),
                       (equal_b, lc.enumerate_states(equal_b, lc.PerClassThreshold((4, 3))))]
    for _ in range(12):
        classes, space = random_instance(rng, symmetric=True)
        cases.append((tuple(lc.TrafficClass(c.lam, float(rng.uniform(0.3, 3.0)), c.bandwidth, c.omega)
                            for c in classes), space))
    for classes, space in cases:
        g = lc.stationary(space, classes).g
        want = [_loop_equal_bandwidth(q, classes, g) for q in space.states]
        assert np.array_equal(lc.equal_bandwidth_relative_costs(space, classes, g).v, want)
        assert [lc.relative_cost_equal_bandwidth_approx(q, classes, g) for q in space.states] == want
    cases = special + [heavy_instance(12),
                       (mixed, lc.enumerate_states(mixed, lc.PerClassThreshold((3, 2, 2))))]
    cases += [random_instance(rng) for _ in range(16)]
    for classes, space in cases:
        g = lc.stationary(space, classes).g
        want = [_loop_general(q, classes, g) for q in space.states]
        assert np.array_equal(lc.general_relative_costs(space, classes, g).v, want)
        assert [lc.relative_cost_general_approx(q, classes, g) for q in space.states] == want


def _loop_quasi_inverse(n, rho):
    # the per-level triple loop the series completion once ran on every term:
    # weight of f(q - s) at level q is sum_{i=1}^{s} (q-i)!/(q-s)! rho^-(s-i),
    # and the weighted sum is scaled by 1/rho
    H = np.zeros((n, n))
    inv = 1.0 / rho
    for q in range(1, n):
        for s in range(1, q + 1):
            w = 0.0
            prod = 1.0  # (q - i)!/(q - s)! accumulated from i = s down to 1
            for i in range(s, 0, -1):
                w += prod * inv ** (s - i)
                prod *= q - i + 1
            H[q, q - s] = w * inv
    return H


def test_quasi_inverse_matrix_matches_loop(rng):
    # one matrix per class of each series box, and levels up to 60
    cases = [(60, rho) for rho in (0.3, 1.0, 2.2, 17.3)]
    for _ in range(8):
        classes, space = random_instance(rng)
        cases += [(int(m) + 9, c.rho) for m, c in zip(space.occupancy.max(axis=0), classes)
                  if c.lam > 0]
    for n, rho in cases:
        want = _loop_quasi_inverse(n, rho)
        got = hw._quasi_inverse(n, rho)
        nz = want != 0
        assert np.array_equal(got != 0, nz)
        assert np.max(np.abs(got - want)[nz] / np.abs(want[nz])) <= 1e-14


def test_one_class_quasi_inverse_identity(rng):
    # along every axis k of a 3-D box, Delta_k (1/mu_k) H_k f reproduces f
    # below the top layer, up to rounding in the terms Delta_k cancels: at
    # rho = 0.36 h reaches 1e8 where f is at most 1
    shape = (7, 9, 6)
    lams, mus = (1.3, 0.4, 2.5), (0.7, 1.1, 0.9)
    f = rng.uniform(-1.0, 1.0, size=shape)
    eps = np.finfo(float).eps
    for k, (lam, mu) in enumerate(zip(lams, mus)):
        h = hw._apply_along(hw._quasi_inverse(shape[k], lam / mu), f, k) / mu
        d = hw._delta_k(h, k, lam, mu)
        a = np.abs(h)
        q = np.arange(shape[k]).reshape([-1 if ax == k else 1 for ax in range(3)])
        scale = lam * (np.roll(a, -1, axis=k) + a) + mu * q * (a + np.roll(a, 1, axis=k)) + np.abs(f)
        ok = np.abs(d - f) <= 64 * eps * scale
        assert np.moveaxis(ok, k, 0)[:-1].all()


def test_series_builds_generator_once(monkeypatch):
    calls = []
    build = hw.sparse_generator

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(hw, "sparse_generator", counting)
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
    assert len(res.residual_history) > 2
    assert len(calls) == 1


def test_series_with_exact_start_adds_nothing():
    # symmetric case: the closed form is exact, the first correction seeds
    # vanish, and the series returns the start unchanged
    classes = tuple(lc.TrafficClass(1.0, 1.0, 1, 1) for _ in range(2))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    dist = lc.stationary(space, classes)
    rho = sum(c.rho for c in classes)
    exact_u = lambda q: _double_sum(sum(q), rho) / rho  # v/g for mu = 1
    res = lc.series_refine(space, classes, dist.g, dist.r, u=exact_u, n_terms=4)
    assert res.converged
    assert res.residual_history[0] <= 1e-8
    want = np.array([dist.g * exact_u(q) for q in space.states])
    np.testing.assert_allclose(res.costs.v, want, atol=1e-10)


def test_series_default_start_equals_callable_start(rng):
    # the tabulated default start gives the same bits as the reference start
    # evaluated point by point
    for _ in range(4):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        a = lc.series_refine(space, classes, dist.g, dist.r, n_terms=3)
        u = _loop_series_start(classes)
        b = lc.series_refine(space, classes, dist.g, dist.r, u=u, n_terms=3)
        assert np.array_equal(a.costs.v, b.costs.v)
        assert a.residual_history == b.residual_history


def test_series_outcome_is_documented(rng):
    # On asymmetric instances the completion repairs the unconstrained
    # balance but can settle on the wrong boundary increments; either the
    # residual genuinely improves or the result must say that it stopped.
    hits = 0
    for _ in range(5):
        classes, space = random_instance(rng, symmetric=True)
        classes = tuple(
            lc.TrafficClass(c.lam, c.mu * float(rng.uniform(0.5, 2.0)), c.bandwidth, c.omega)
            for c in classes
        )
        space = lc.enumerate_states(classes, lc.FullSharing(capacity=int(space.occupancy.sum(axis=1).max())))
        dist = lc.stationary(space, classes)
        if dist.g == 0:
            continue
        res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
        improved = res.residual_history[-1] <= 0.1 * res.residual_history[0]
        assert improved or res.message
        assert res.costs.residual == min(res.residual_history)
        hits += 1
    assert hits >= 3


def test_series_k1_converges():
    # one class: a single correction merges the quasi-inverse exactly
    classes = (lc.TrafficClass(2.0, 1.0, 1, 2),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=3)
    exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert res.converged
    np.testing.assert_allclose(res.costs.v, exact.v, atol=1e-6)


def test_shadow_prices_reference():
    classes, space = k1_instance()
    dist, costs = _solved(classes, space)
    table = lc.shadow_prices(costs, space)
    assert table.p[0, 0] == pytest.approx(0.2, abs=1e-12)
    assert table.p[1, 0] == pytest.approx(0.4, abs=1e-12)
    assert math.isnan(table.p[2, 0])


def test_shadow_prices_zero_cost():
    classes = (lc.TrafficClass(1.0, 1.0, omega=0),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist, costs = _solved(classes, space)
    table = lc.shadow_prices(costs, space)
    assert np.nanmax(np.abs(table.p)) == pytest.approx(0.0, abs=1e-12)


def test_shadow_prices_match_loop(rng):
    for _ in range(6):
        classes, space = random_instance(rng)
        dist, costs = _solved(classes, space)
        want = np.full((len(space), space.K), np.nan)
        for i in range(len(space)):
            for k in range(space.K):
                if space.up[i, k] >= 0:
                    want[i, k] = costs.v[space.up[i, k]] - costs.v[i]
        np.testing.assert_array_equal(lc.shadow_prices(costs, space).p, want)


def test_shadow_prices_anchor_invariant():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    a = lc.solve_howard_exact(space, classes, dist.g, dist.r, anchor=0)
    b = lc.solve_howard_exact(space, classes, dist.g, dist.r, anchor=3)
    ta, tb = lc.shadow_prices(a, space), lc.shadow_prices(b, space)
    np.testing.assert_allclose(ta.p, tb.p, atol=1e-9, equal_nan=True)


def test_bill_distribution_reference():
    classes, space = k1_instance()
    dist, costs = _solved(classes, space)
    bills = lc.bill_distribution(lc.shadow_prices(costs, space), dist.pi, space)
    (atoms,) = bills.per_class
    assert len(atoms) == 2
    assert atoms[0][0] == pytest.approx(0.2, abs=1e-12)
    assert atoms[0][1] == pytest.approx(0.5, abs=1e-12)
    assert atoms[1][0] == pytest.approx(0.4, abs=1e-12)
    assert atoms[1][1] == pytest.approx(0.5, abs=1e-12)


def test_bill_distribution_normalized_and_mean(rng):
    for _ in range(6):
        classes, space = random_instance(rng)
        dist, costs = _solved(classes, space)
        table = lc.shadow_prices(costs, space)
        bills = lc.bill_distribution(table, dist.pi, space)
        for k in range(space.K):
            total = sum(w for _, w in bills.per_class[k])
            assert total == pytest.approx(1.0, abs=1e-12)
            mask = space.admissible[:, k]
            direct = float(dist.pi[mask] @ table.p[mask, k]) / float(dist.pi[mask].sum())
            assert bills.mean(k) == pytest.approx(direct, abs=1e-12)


def scan_merge_atoms(prices, weights, merge_tol):
    """[price, weight] atoms by one scan of ascending prices: the loop that
    ``_merge_atoms`` replaced."""
    atoms = []
    for price, w in zip(prices, weights):
        if atoms and price - atoms[-1][0] <= merge_tol:
            atoms[-1][1] += w
        else:
            atoms.append([price, w])
    return atoms


def _merge_cases(rng):
    # distinct prices, clusters of equal and near-equal prices (runs from 2 to
    # a few hundred, where a pairwise sum would round differently), chains
    # wider than the tolerance, and non-finite prices
    for n in (1, 2, 9, 200, 1500):
        yield np.sort(rng.normal(size=n)), 1e-12
        base = np.repeat(rng.normal(size=max(1, n // 30)), rng.integers(1, 400, max(1, n // 30)))
        yield np.sort(base + rng.uniform(0, 5e-13, len(base))), 1e-12
        yield np.sort(rng.integers(0, 40, n) * 0.01 + rng.normal(size=n) * 1e-3), 0.012
        yield np.sort(np.round(rng.normal(size=n), 1)), 0.3
    yield np.array([-np.inf, -np.inf, 0.0, 1e-13, np.inf, np.inf, np.nan, np.nan]), 1e-12


def test_merge_atoms_matches_scan(rng):
    for prices, tol in _merge_cases(rng):
        for weights in (rng.random(len(prices)), rng.integers(1, 9, len(prices))):
            with np.errstate(invalid="ignore"):  # inf - inf, as the scan computes it
                price, weight = hw._merge_atoms(prices, weights, tol)
            want = scan_merge_atoms(prices.tolist(), weights.tolist(), tol)
            assert weight.dtype == weights.dtype
            got = [[p, w] for p, w in zip(price.tolist(), weight.tolist())]
            assert len(got) == len(want)
            assert all(g[1] == w[1] and (g[0] == w[0] or math.isnan(w[0])) for g, w in zip(got, want))


def test_bill_distribution_matches_scan(rng):
    # symmetric models price many states alike: long runs of equal prices
    for symmetric in (True, False):
        for _ in range(4):
            classes, space = random_instance(rng, symmetric=symmetric)
            dist, costs = _solved(classes, space)
            table = lc.shadow_prices(costs, space)
            bills = lc.bill_distribution(table, dist.pi, space)
            for k in range(space.K):
                mask = space.admissible[:, k]
                order = np.argsort(table.p[mask, k])
                want = scan_merge_atoms(table.p[mask, k][order].tolist(),
                                        (dist.pi[mask][order] / dist.pi[mask].sum()).tolist(), 1e-12)
                assert bills.per_class[k] == tuple(map(tuple, want))


def test_bill_distribution_never_admitted_class():
    # a class that no state admits pays no bill: its law is empty
    states = [(0,)]
    space = lc.StateSpace(states, np.array([[False]]))
    table = lc.shadow_prices(np.zeros(1), space)
    bills = lc.bill_distribution(table, np.array([1.0]), space)
    assert bills.per_class == ((),)
    assert math.isnan(bills.mean(0))


def test_csv_emitters(tmp_path):
    classes, space = k1_instance()
    dist, costs = _solved(classes, space)
    table = lc.shadow_prices(costs, space)
    bills = lc.bill_distribution(table, dist.pi, space)
    hw.write_relative_costs(tmp_path / "v.csv", space, costs)
    hw.write_shadow_prices(tmp_path / "p.csv", space, table)
    hw.write_bill_distribution(tmp_path / "b.csv", bills)
    assert (tmp_path / "v.csv").read_text().splitlines()[0] == "q1,v"
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "q1,class,price"
    assert len(lines) == 3  # two priced pairs


def test_exact_solve_condition_limit(monkeypatch):
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    monkeypatch.setattr(hw, "COND_LIMIT", 1.0)
    with pytest.raises(lc.NumericsError, match="condition"):
        lc.solve_howard_exact(space, classes, dist.g, dist.r)


def _transient_cost_integral(space, classes, dist, horizon=60.0, steps=60_000):
    # oracle: v(q) = integral of (expected cost rate from q) - g, trapezoid
    from scipy.linalg import expm

    Q = lc.build_generator(space, classes)
    dt = horizon / steps
    P = expm(Q * dt)
    acc = np.zeros(len(space))
    cur = np.eye(len(space))
    vals = cur @ dist.r - dist.g
    for _ in range(steps):
        cur = cur @ P
        nxt = cur @ dist.r - dist.g
        acc += 0.5 * dt * (vals + nxt)
        vals = nxt
    return acc - acc[0]


def test_exact_solve_matches_transient_integral():
    classes, space = k1_instance()
    dist, costs = _solved(classes, space)
    oracle = _transient_cost_integral(space, classes, dist, horizon=40.0, steps=20_000)
    np.testing.assert_allclose(costs.v, oracle, atol=1e-5)


def test_shadow_prices_can_be_negative():
    # a wideband class that is free to block can hog the link and cause
    # expensive blocking of the narrow class; admitting a narrow call then
    # *protects* the link, so its price is genuinely negative
    classes = (
        lc.TrafficClass(lam=1.8, mu=1.1, bandwidth=3, omega=0),
        lc.TrafficClass(lam=2.3, mu=0.65, bandwidth=1, omega=2),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    dist, costs = _solved(classes, space)
    table = lc.shadow_prices(costs, space)
    assert np.nanmin(table.p) < -0.1
    oracle = _transient_cost_integral(space, classes, dist)
    np.testing.assert_allclose(costs.v, oracle, atol=1e-4)


def test_series_rejects_zero_rate_class():
    classes = (lc.TrafficClass(0.0, 1.0, 1, 1), lc.TrafficClass(1.0, 1.0, 1, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist = lc.stationary(space, classes)
    with pytest.raises(lc.ModelError, match="arrival rate"):
        lc.series_refine(space, classes, dist.g, dist.r)


def test_series_rejects_negative_terms():
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    with pytest.raises(lc.ModelError, match="n_terms"):
        lc.series_refine(space, classes, dist.g, dist.r, n_terms=-5)


def test_series_zero_terms_returns_start():
    # no correction term: the result is g u(q) of the default start
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=0)
    u = _loop_series_start(classes)
    want = np.array([dist.g * u(q) for q in space.states])
    np.testing.assert_allclose(res.costs.v, want, rtol=1e-14, atol=1e-15)
    assert len(res.residual_history) == 1
    assert res.costs.residual == res.residual_history[0]
