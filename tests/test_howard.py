"""Relative costs: exact solve, closed forms, series completion, prices, bills."""

import math
import time

import numpy as np
import pytest

import losscost as lc
from losscost import howard as hw
from conftest import (heavy_instance, implied_cost_sides, k1_instance, k2_reference, random_instance,
                      random_model, threshold_factor_solution)


# Reference forms: the closed forms evaluated one state at a time by the
# double-sum loop, as the library once computed them.  The library's
# per-state and whole-space names share one kernel, so these are what both
# are checked against.  The series start is the per-state general
# approximation, so its whole-space evaluation is checked against that.


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
    # the series completion's default start: the general approximation at g = 1
    return lambda q: lc.relative_cost_general_approx(q, classes, 1.0)


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


def test_exact_solve_gives_no_negative_zero():
    # with lambda = 0 the SuperLU fallback answers, and shifting its
    # solution to v(anchor) = 0 gives -0.0 at the states that see no cost
    classes = (lc.TrafficClass(lam=0.0, mu=1.0, omega=1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist, costs = _solved(classes, space)
    assert not costs.v.any()
    assert not np.signbit(costs.v).any()


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


def _superlu_only(monkeypatch):
    """Route the exact solve to its SuperLU-preconditioned attempt: a Jacobi
    preconditioner that returns NaN breaks the first one down at step 1."""
    monkeypatch.setattr(hw, "_jacobi", lambda A: lambda b: np.full_like(b, np.nan))


def _model(lam, mu, bandwidth, omega, capacity):
    classes = tuple(lc.TrafficClass(lam=l, mu=m, bandwidth=b, omega=w)
                    for l, m, b, w in zip(lam, mu, bandwidth, omega))
    return classes, lc.enumerate_states(classes, lc.FullSharing(capacity=capacity))


# Models on which Jacobi-preconditioned BiCGSTAB cannot meet its bound and
# the SuperLU-preconditioned attempt answers: (1) rates spread over five
# decades, where the iteration does not converge; (2) slow mixing on 1,891
# states, where the Howard iteration runs out of steps and the
# SuperLU-preconditioned step reaches 1.5e-9: under RESIDUAL_TOL, but never
# under Jacobi's bound of 1e-9.
FALLBACK_MODELS = {
    "spread-rates": ((0.001, 50, 1), (0.001, 10, 100), (1, 1, 2), (1, 2, 3), 15),
    "slow-mixing-60": ((1, 1), (1e-5, 1e3), (1, 1), (1, 1), 60),
}
# Models on which Jacobi-preconditioned BiCGSTAB stalls, its updated
# residual far below the true one, and a restart from the true residual
# answers: (1) a very heavy load, whose first run stalls at 4.9e-9; (2) slow
# mixing on 351 states
RESTART_MODELS = {
    "very-heavy": ((1000, 500, 200), (1, 1, 1), (1, 1, 1), (1, 2, 3), 25),
    "slow-mixing": ((1, 1), (1e-5, 1e3), (1, 1), (1, 1), 25),
}


def test_bicgstab_matches_superlu_on_random_instances(rng, monkeypatch):
    policies = set()
    for _ in range(16):
        classes, policy = random_model(rng)
        policies.add(type(policy))
        space = lc.enumerate_states(classes, policy)
        dist = lc.stationary(space, classes)
        iterative = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        with monkeypatch.context() as m:
            _superlu_only(m)
            direct = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        assert (iterative.solver, direct.solver) == ("bicgstab", "superlu")
        assert direct.iterations == 1
        scale = max(1.0, float(np.max(np.abs(direct.v))))
        assert np.max(np.abs(iterative.v - direct.v)) <= 1e-10 * scale
        assert iterative.residual <= max(10 * direct.residual, 1e-11)
        assert iterative.condition == pytest.approx(direct.condition, rel=1e-6)
    assert policies == {lc.FullSharing, lc.PerClassThreshold}


def test_exact_solve_heavy_60_matches_closed_form():
    # 39,711 states: SuperLU took 3.3 s here, BiCGSTAB about 0.3 s
    classes, space = heavy_instance(60)
    dist = lc.stationary(space, classes)
    exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    closed = lc.symmetric_relative_costs(space, classes, dist.g)
    assert exact.solver == "bicgstab" and 0 < exact.iterations <= hw.BICGSTAB_MAX_ITER
    assert exact.residual <= hw.RESIDUAL_TOL
    np.testing.assert_allclose(exact.v, closed.v, rtol=1e-10, atol=0.0)


def _superlu_oracle(space, classes, dist):
    """v(empty) = 0 from one SuperLU solve of Howard's equation with the most
    likely state's equation replaced by v = 0 there."""
    from scipy.sparse.linalg import splu

    A = lc.sparse_generator(space, classes).tolil()
    pivot = int(np.argmax(dist.pi))
    A[pivot] = 0.0
    A[pivot, pivot] = 1.0
    rhs = dist.g - dist.r
    rhs[pivot] = 0.0
    x = splu(A.tocsc()).solve(rhs)
    return x - x[0]


def _threshold_model(name):
    lam, mu, omega, thresholds = THRESHOLD_MODELS[name]
    classes = tuple(lc.TrafficClass(lam=l, mu=m, omega=w) for l, m, w in zip(lam, mu, omega))
    space, v, g = threshold_factor_solution(classes, thresholds)
    return classes, space, v, g


@pytest.mark.parametrize("name", FALLBACK_MODELS)
def test_exact_solve_falls_back_to_superlu(name, monkeypatch):
    # quietly: pytest turns a warning, such as an overflow in the failed
    # iteration, into an error
    classes, space = _model(*FALLBACK_MODELS[name])
    dist = lc.stationary(space, classes)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert costs.solver == "superlu" and costs.iterations == 1
    assert costs.residual <= hw.RESIDUAL_TOL
    want = _superlu_oracle(space, classes, dist)
    assert np.max(np.abs(costs.v - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
    with monkeypatch.context() as m:
        _superlu_only(m)
        direct = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert np.array_equal(costs.v, direct.v)


@pytest.mark.parametrize("name", [*RESTART_MODELS, "thresholds"])
def test_exact_solve_restarts_on_a_stall(name, monkeypatch):
    # Jacobi's first run stalls on each; restarts answer without a factorisation
    if name == "thresholds":
        classes, space, _, _ = _threshold_model("restarted")
    else:
        classes, space = _model(*RESTART_MODELS[name])
    dist = lc.stationary(space, classes)
    with monkeypatch.context() as m:
        m.setattr(hw, "_superlu", lambda *a: pytest.fail("SuperLU ran"))
        costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert costs.solver == "bicgstab" and 0 < costs.iterations <= hw.BICGSTAB_MAX_ITER
    assert costs.residual <= hw.RESIDUAL_TOL
    want = _superlu_oracle(space, classes, dist)
    assert np.max(np.abs(costs.v - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_exact_solve_above_superlu_bound_fails_before_factoring(monkeypatch):
    # BiCGSTAB does not converge on the 444-state spread-rates model; with
    # the bound below its state count the solve says how the iteration
    # stopped instead of factoring
    classes, space = _model(*FALLBACK_MODELS["spread-rates"])
    dist = lc.stationary(space, classes)
    monkeypatch.setattr(hw, "SUPERLU_STATE_CAP", len(space) - 1)
    monkeypatch.setattr(hw, "_superlu", lambda *a: pytest.fail("SuperLU ran"))
    with pytest.raises(lc.NumericsError,
                       match=r"^BiCGSTAB (stalled|broke down|ran out).*SuperLU factors at most 443 "
                             r"states, not 444$"):
        lc.solve_howard_exact(space, classes, dist.g, dist.r)


def test_exact_solve_gates_the_v_it_returns():
    # 1,681 states at lambda_1 = 3e5: an iterate meets the residual gate
    # before the shift to v(empty) = 0 and misses it after (1.02e-8), so an
    # attempt that measured the unshifted iterate gave an answer the gate
    # then refused; measured after the shift, the SuperLU step is refined
    classes, space = _model((3e5, 1), (1, 1), (1, 2), (1, 1), 80)
    dist, costs = _solved(classes, space)
    assert costs.residual <= hw.RESIDUAL_TOL
    assert costs.residual == lc.howard_residual(space, classes, costs.v, dist.g, dist.r)
    want = _superlu_oracle(space, classes, dist)
    assert np.max(np.abs(costs.v - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def _assert_implied_costs(space, classes, dist, v, floor=0.0):
    sides = implied_cost_sides(space, classes, dist, v)
    assert sides
    for lhs, rhs in sides:
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), floor)


def test_exact_prices_meet_implied_costs_on_random_instances(rng):
    policies = set()
    for _ in range(24):
        classes, policy = random_model(rng)
        policies.add(type(policy))
        space = lc.enumerate_states(classes, policy)
        dist, costs = _solved(classes, space)
        # the solve's rounding is relative to the scale of v, which on a
        # lightly loaded link is 1e3 times both sides; with every cost on a
        # class that never fits, v is rounding at the scale of r / mu
        floor = max(np.abs(costs.v).max(), dist.r.max() / min(c.mu for c in classes))
        _assert_implied_costs(space, classes, dist, costs.v, floor)
    assert policies == {lc.FullSharing, lc.PerClassThreshold}


# K4: four unit-bandwidth classes, 46,376 states, about 0.6 s per solve
K4_MODEL = ((8, 4, 20, 3), (1, 0.5, 3, 0.2), (1, 1, 1, 1), (1, 2, 3, 1), 30)


@pytest.mark.parametrize("name", ["heavy-40", "K4"])
def test_exact_prices_meet_implied_costs_at_scale(name):
    classes, space = heavy_instance(40) if name == "heavy-40" else _model(*K4_MODEL)
    dist, costs = _solved(classes, space)
    _assert_implied_costs(space, classes, dist, costs.v)
    # the identity sees an error of 1e-6 of the scale at one likely state
    admitted = space.admissible.any(axis=1)
    i = int(np.argmax(np.where(admitted, dist.pi, 0.0)))
    assert dist.pi[i] >= 1e-3
    moved = costs.v.copy()
    moved[i] += 1e-6 * np.max(np.abs(costs.v))
    assert any(abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs))
               for lhs, rhs in implied_cost_sides(space, classes, dist, moved))


def test_implied_costs_of_a_zero_cost_class():
    # a class that is never charged still moves the others' costs, so both
    # sides of its identity are nonzero
    classes, space = _model((1, 0.7), (1, 1.3), (1, 2), (0, 2), 5)
    dist, costs = _solved(classes, space)
    lhs, rhs = implied_cost_sides(space, classes, dist, costs.v)[0]
    assert lhs == pytest.approx(0.157669033923756, rel=1e-12)
    _assert_implied_costs(space, classes, dist, costs.v)


# Threshold models (lam, mu, omega, thresholds), both solved by BiCGSTAB:
# 29,016 states in one run, and 8,736 states on which the first run stalls
# at about 2e-10 and a restart answers
THRESHOLD_MODELS = {
    "bicgstab": ((20, 25, 30), (1, 1, 1), (1, 2, 3), (25, 30, 35)),
    "restarted": ((10, 20, 5), (1, 1, 0.1), (1, 2, 3), (15, 20, 25)),
}


@pytest.mark.parametrize("name", THRESHOLD_MODELS)
def test_exact_solve_matches_threshold_factorisation(name):
    classes, space, v, g = _threshold_model(name)
    dist, costs = _solved(classes, space)
    assert costs.solver == "bicgstab"
    assert dist.g == pytest.approx(g, rel=1e-12)
    assert np.max(np.abs(costs.v - v)) <= 1e-12 * np.max(np.abs(v))


def _estimated_direct_solve(space, classes, dist):
    """The direct solve with a condition estimate, as the exact solve ran
    before BiCGSTAB: SuperLU on the anchored system plus ``onenormest``."""
    import scipy.sparse
    from scipy.sparse.linalg import LinearOperator, norm, onenormest, splu

    A = lc.sparse_generator(space, classes).tolil()
    pivot = int(np.argmax(dist.pi))
    A[pivot] = 0.0
    A[pivot, pivot] = 1.0
    A = scipy.sparse.csc_matrix(A)
    rhs = dist.g - dist.r
    rhs[pivot] = 0.0
    lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    inverse = LinearOperator(A.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T"),
                             dtype=float)
    onenormest(inverse) * norm(A, 1)
    return lu.solve(rhs)


def test_failed_bicgstab_costs_little():
    # the iteration that never converges is cut off by the step cap: the
    # whole solve takes at most twice the CPU time of the estimated direct
    # solve, plus 20 ms
    classes, space = _model(*FALLBACK_MODELS["spread-rates"])
    dist = lc.stationary(space, classes)

    def best_time(solve):
        times = []
        for _ in range(6):
            start = time.process_time()
            solve()
            times.append(time.process_time() - start)
        return min(times[1:])

    exact = best_time(lambda: lc.solve_howard_exact(space, classes, dist.g, dist.r))
    direct = best_time(lambda: _estimated_direct_solve(space, classes, dist))
    assert exact <= 2 * direct + 0.02


def _dense_anchored(space, classes, dist):
    A = lc.build_generator(space, classes)
    pivot = int(np.argmax(dist.pi))
    A[pivot] = 0.0
    A[pivot, pivot] = 1.0
    return A


@pytest.mark.parametrize("path", ["bicgstab", "superlu"])
def test_condition_number_is_exact(rng, monkeypatch, path):
    # ||A||_1 ||A^-1||_1 from a dense inverse
    if path == "superlu":
        _superlu_only(monkeypatch)
    models = [k1_instance(), k2_reference(), heavy_instance(6)]
    models += [random_instance(rng) for _ in range(8)]
    for classes, space in models:
        dist = lc.stationary(space, classes)
        A = _dense_anchored(space, classes, dist)
        inverse = np.linalg.inv(A)
        # A with every row but the pivot's negated is an M-matrix, so A^-1
        # has one sign per column
        sign = -np.ones(len(space))
        sign[np.argmax(dist.pi)] = 1.0
        assert np.all(inverse * sign >= -1e-12 * np.abs(inverse).max())
        want = np.abs(A).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
        costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
        assert costs.solver == path
        # the transposed BiCGSTAB solve stops at a relative error of 1e-6
        assert costs.condition == pytest.approx(want, rel=hw.COND_SOLVE_TOL if path == "bicgstab" else 1e-12)


def test_exact_solve_rejects_bad_anchor():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    for anchor in (-1, 3):
        with pytest.raises(lc.ModelError, match="anchor"):
            lc.solve_howard_exact(space, classes, dist.g, dist.r, anchor=anchor)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r, anchor=2)
    assert costs.anchor == 2 and costs.v[2] == 0.0
    np.testing.assert_allclose(costs.v, [-0.6, -0.4, 0.0], atol=1e-12)


def test_exact_solve_fails_when_both_paths_miss_the_gate(monkeypatch):
    # with a zero gate neither attempt accepts an iterate: SuperLU's
    # rounding-level residual misses it too
    classes, space = k2_reference()
    dist = lc.stationary(space, classes)
    calls = []
    superlu = hw._superlu
    monkeypatch.setattr(hw, "_superlu", lambda *a: calls.append(1) or superlu(*a))
    monkeypatch.setattr(hw, "RESIDUAL_TOL", 0.0)
    with pytest.raises(lc.NumericsError, match="residual"):
        lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert calls == [1]


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
        D = hw._total_tables(60, rho)
        assert np.array_equal(D, [_double_sum(t, rho) for t in range(61)])


def test_closed_forms_refuse_overflowing_sums():
    # rho = 1e-312: 1/rho overflows in the double sums, so no closed form
    # has a finite value at two calls
    classes = (lc.TrafficClass(lam=1e-300, mu=1e12, bandwidth=1, omega=2),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    g = lc.stationary(space, classes).g
    for call in (lambda: lc.relative_cost_symmetric(2, g, 1e12, classes[0].rho),
                 lambda: lc.relative_cost_general_approx((2,), classes, g),
                 lambda: lc.symmetric_relative_costs(space, classes, g),
                 lambda: lc.general_relative_costs(space, classes, g)):
        with pytest.raises(lc.NumericsError, match="not finite"):
            call()


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
    same = (lc.TrafficClass(1.0, 1.0, 1, 1),) * 2
    thresholds = lc.enumerate_states(same, lc.PerClassThreshold((3, 3)))
    for classes, space in ((classes, space), (same, thresholds)):
        with pytest.raises(lc.ModelError):
            lc.symmetric_relative_costs(space, classes, g=0.1)


def test_equal_bandwidth_approx_reduces_when_rates_equal():
    classes = tuple(lc.TrafficClass(lam, 1.5, 1, 1) for lam in (1.0, 0.5))
    rho = sum(c.rho for c in classes)
    g = 0.37
    for q in [(0, 0), (1, 0), (1, 2), (3, 1)]:
        want = lc.relative_cost_symmetric(sum(q), g, 1.5, rho)
        assert lc.relative_cost_equal_bandwidth_approx(q, classes, g) == pytest.approx(want, rel=1e-12)


def test_equal_bandwidth_approx_rejects_unequal_bandwidths():
    # the general approximation answers here; its equal-bandwidth names do not
    classes = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(1.0, 2.0, 2, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
    assert lc.general_relative_costs(space, classes, 0.5).v.any()
    with pytest.raises(lc.ModelError, match="equal bandwidths"):
        lc.equal_bandwidth_relative_costs(space, classes, 0.5)
    with pytest.raises(lc.ModelError, match="equal bandwidths"):
        lc.relative_cost_equal_bandwidth_approx((1, 1), classes, 0.5)


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
    # general reference loop evaluated state by state (equal-bandwidth is
    # the general approximation at equal bandwidths), and equal-bandwidth
    # stays within rounding of its own occupancy-weighted loop; the
    # symmetric instances get unequal service rates (the state space does
    # not depend on them) so that equal-bandwidth is not the closed form
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
        want = [_loop_general(q, classes, g) for q in space.states]
        got = lc.equal_bandwidth_relative_costs(space, classes, g).v
        assert np.array_equal(got, want)
        assert [lc.relative_cost_equal_bandwidth_approx(q, classes, g) for q in space.states] == want
        own = np.array([_loop_equal_bandwidth(q, classes, g) for q in space.states])
        assert np.max(np.abs(got - own)) <= 4e-15 * np.max(np.abs(own))
    cases = special + [heavy_instance(12),
                       (mixed, lc.enumerate_states(mixed, lc.PerClassThreshold((3, 2, 2))))]
    cases += [random_instance(rng) for _ in range(16)]
    for classes, space in cases:
        g = lc.stationary(space, classes).g
        want = [_loop_general(q, classes, g) for q in space.states]
        assert np.array_equal(lc.general_relative_costs(space, classes, g).v, want)
        assert [lc.relative_cost_general_approx(q, classes, g) for q in space.states] == want


def _dense_line_matrix(space, classes, k, pivot):
    # diag(A) plus A's class-k couplings, A the generator with the pivot's
    # row replaced by v(q*) = 0
    A = lc.sparse_generator(space, classes).toarray()
    A[pivot] = 0.0
    A[pivot, pivot] = 1.0
    M = np.diag(np.diag(A))
    for i in range(len(space)):
        for j in (space.up[i, k], space.down[i, k]):
            if j >= 0:
                M[i, j] = A[i, j]
    return M


def test_line_solves_match_dense_solves(rng):
    # one state (no class fits), two states, and random models of both
    # policy kinds
    cases = [((lc.TrafficClass(1.0, 1.0, 3, 1), lc.TrafficClass(0.5, 2.0, 4, 1)), lc.FullSharing(2)),
             ((lc.TrafficClass(1.3, 0.7, 1, 1),), lc.FullSharing(1)),
             ((lc.TrafficClass(1.3, 0.7, 1, 1), lc.TrafficClass(0.4, 1.1, 2, 1)), lc.FullSharing(1))]
    cases = [(classes, lc.enumerate_states(classes, policy)) for classes, policy in cases]
    assert [len(space) for _, space in cases] == [1, 2, 2]
    cases += [random_instance(rng) for _ in range(12)]
    for classes, space in cases:
        dist = lc.stationary(space, classes)
        _, A, _, pivot = hw._anchored_system(space, classes, dist.g, dist.r)
        factors = hw._line_factors(space, A)
        assert len(factors) == space.K
        for k, factor in enumerate(factors):
            b = rng.uniform(-1.0, 1.0, size=len(space))
            want = np.linalg.solve(_dense_line_matrix(space, classes, k, pivot), b)
            got = hw._line_solve(factor, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    # symmetric case: the closed form is exact, so the series returns the
    # start unchanged
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
    # On asymmetric instances the terms need not reach the tolerance; either
    # the residual genuinely improves or the result must say that it stopped.
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


def test_series_default_start_is_exact_on_symmetric_models(monkeypatch):
    # K=3 complete sharing with one bandwidth and one service rate: the
    # general approximation is the closed form, so the series returns its
    # start without computing a term
    classes = tuple(lc.TrafficClass(lam, 1.0, 1, w) for lam, w in ((2.0, 1), (2.1, 2), (1.9, 3)))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=16))
    dist = lc.stationary(space, classes)
    monkeypatch.setattr(hw, "_line_factors", lambda *a: pytest.fail("a term was computed"))
    res = lc.series_refine(space, classes, dist.g, dist.r)
    closed = lc.symmetric_relative_costs(space, classes, dist.g).v
    assert res.costs.residual <= 1e-10
    assert np.max(np.abs(res.costs.v - closed)) <= 1e-12 * np.max(np.abs(closed))
    assert res.converged and res.message == "converged after 0 terms"
    assert res.residual_history == (res.costs.residual,)


def test_series_k1_converges():
    # one class: M_1 is the whole anchored system, so from a zero start the
    # first term is the exact solution
    classes = (lc.TrafficClass(2.0, 1.0, 1, 2),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r, u=lambda q: 0.0, n_terms=3)
    exact = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert res.converged and res.message == "converged after 1 terms"
    assert len(res.residual_history) == 2 and res.residual_history[0] > 0.1
    assert np.max(np.abs(res.costs.v - exact.v)) <= 1e-12 * np.max(np.abs(exact.v))


def test_series_terms_improve_on_the_mixed_shape():
    # bandwidths (1, 2, 3), unequal service rates, 1,041 states: six terms
    # take the residual of the start below a hundredth of it
    classes = tuple(lc.TrafficClass(lam, mu, b, b) for lam, mu, b in ((4.0, 1.0, 1), (2.0, 1.5, 2), (1.0, 2.0, 3)))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=30))
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
    assert len(space) == 1041 and len(res.residual_history) == 7
    assert res.costs.residual < 0.01 * res.residual_history[0]
    assert res.costs.residual == min(res.residual_history)


def test_series_halves_every_unconverged_start():
    rng = np.random.default_rng(5)
    built = 0
    for _ in range(40):
        classes, policy = random_model(rng)
        space = lc.enumerate_states(classes, policy)
        dist = lc.stationary(space, classes)
        res = lc.series_refine(space, classes, dist.g, dist.r)
        if len(res.residual_history) > 1:
            built += 1
            assert res.costs.residual <= 0.5 * res.residual_history[0], res.residual_history
    assert built >= 20


def test_series_stall_is_relative(monkeypatch):
    # no correction on a model whose residual is about 200: the residual
    # stalls after one term
    classes = tuple(lc.TrafficClass(lam, 1.0, b, b) for lam, b in ((12.0, 1), (5.0, 2), (3.0, 3)))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=40))
    dist = lc.stationary(space, classes)
    monkeypatch.setattr(hw, "_line_solve", lambda factor, b: np.zeros_like(b))
    res = lc.series_refine(space, classes, dist.g, dist.r)
    assert res.residual_history[0] > 100.0
    assert res.residual_history[1] == res.residual_history[0]
    assert res.message == "residual stalled (relative change at most 1e-10) after 1 terms; stopping"
    assert not res.converged
    # a residual of 1e-3 that falls by 1e-11 a term moves by 1e-8 relative:
    # no stall, however small the absolute change
    monkeypatch.undo()
    scripted = iter(1e-3 - 1e-11 * np.arange(7))
    monkeypatch.setattr(hw, "_residual", lambda *args: float(next(scripted)))
    res = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
    assert len(res.residual_history) == 7
    assert res.message == "stopped after 6 terms without reaching 1e-06"


def test_series_stops_when_its_residual_grows():
    # b123(40): the first term takes the residual from 195 to 13.3, the next
    # three raise it, and the series returns the first term's iterate
    classes = tuple(lc.TrafficClass(lam, 1.0, b, b) for lam, b in ((12.0, 1), (5.0, 2), (3.0, 3)))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=40))
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r)
    assert res.message == "residual grew for 3 consecutive terms; returning best iterate (after 1 terms)"
    assert not res.converged
    assert len(res.residual_history) == 5
    assert res.costs.residual == res.residual_history[1]


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
    space = lc.StateSpace(states)
    table = lc.shadow_prices(np.zeros(1), space)
    bills = lc.bill_distribution(table, np.array([1.0]), space)
    assert bills.per_class == ((),)
    assert math.isnan(bills.mean(0))


def test_bill_distribution_refuses_underflowing_admitting_states():
    # at lam_1 = 1e6 on a link of 100, pi(empty) underflows to 0, and only
    # the empty state admits class 2's bandwidth of 100
    classes = (lc.TrafficClass(1e6, 1.0, 1, 1), lc.TrafficClass(1.0, 1.0, 100, 1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=100))
    dist = lc.stationary(space, classes)
    assert dist.pi[0] == 0.0 and np.flatnonzero(space.admissible[:, 1]).tolist() == [0]
    table = lc.shadow_prices(lc.general_relative_costs(space, classes, dist.g), space)
    with pytest.raises(lc.NumericsError, match="class 2: .* admitting states underflows to zero"):
        lc.bill_distribution(table, dist.pi, space)


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
    # on either path, before any answer is returned
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    monkeypatch.setattr(hw, "COND_LIMIT", 1.0)
    with pytest.raises(lc.NumericsError, match="condition"):
        lc.solve_howard_exact(space, classes, dist.g, dist.r)
    _superlu_only(monkeypatch)
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


def test_series_answers_zero_rate_class():
    # pi = 0 off q_1 = 0, and the terms still improve on the start
    classes = (lc.TrafficClass(0.0, 1.0, 1, 1), lc.TrafficClass(1.0, 2.0, 2, 1), lc.TrafficClass(2.0, 1.0, 1, 2))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=6))
    dist = lc.stationary(space, classes)
    res = lc.series_refine(space, classes, dist.g, dist.r)
    assert len(res.residual_history) > 1
    assert np.isfinite(res.costs.v).all()
    assert res.costs.residual < 0.1 * res.residual_history[0]


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
