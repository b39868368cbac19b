"""State-space enumeration, product-form stationary law, generator."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import losscost as lc
from conftest import (heavy_instance, k1_instance, k2_reference, kaufman_roberts, random_instance,
                      random_model)


def test_enumerate_k1_full_sharing():
    classes, space = k1_instance()
    assert space.states == ((0,), (1,), (2,))
    assert space.admissible.tolist() == [[True], [True], [False]]
    assert space.index[(0,)] == 0


def test_enumerate_mixed_bandwidth_matches_brute_force():
    classes = (
        lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1),
        lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=2),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    # oracle: scan the full box for q1*1 + q2*2 <= 2
    expected = sorted(
        q for q in itertools.product(range(3), range(2)) if q[0] + 2 * q[1] <= 2
    )
    assert list(space.states) == expected
    assert space.states == ((0, 0), (0, 1), (1, 0), (2, 0))
    # class 1 still fits at (1,0) but class 2 does not
    i = space.index[(1, 0)]
    assert space.admitted_classes(i) == (0,)


def test_enumerate_per_class_thresholds():
    classes = (
        lc.TrafficClass(lam=1.0, mu=1.0),
        lc.TrafficClass(lam=1.0, mu=1.0),
    )
    space = lc.enumerate_states(classes, lc.PerClassThreshold(thresholds=(1, 1)))
    assert set(space.states) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumerate_respects_cap():
    classes = (lc.TrafficClass(lam=1.0, mu=1.0),)
    with pytest.raises(lc.StateSpaceSizeError):
        lc.enumerate_states(classes, lc.FullSharing(capacity=100), cap=10)


def _box_scan(classes, policy):
    # oracle: every count vector in the bounding box, filtered by the policy's rule
    b = [c.bandwidth for c in classes]
    if isinstance(policy, lc.FullSharing):
        C = policy.capacity
        box = [range(C // bj + 1) for bj in b]
        states = [q for q in itertools.product(*box) if sum(x * y for x, y in zip(q, b)) <= C]
        admits = [[sum(x * y for x, y in zip(q, b)) + bj <= C for bj in b] for q in states]
    else:
        box = [range(t + 1) for t in policy.thresholds]
        states = list(itertools.product(*box))
        admits = [[qj < t for qj, t in zip(q, policy.thresholds)] for q in states]
    return states, np.array(admits, dtype=bool)


def _loop_neighbours(states, K):
    # reference: up/down through a tuple -> index dict, one state at a time
    index = {q: i for i, q in enumerate(states)}
    up = np.full((len(states), K), -1, dtype=np.int64)
    down = np.full((len(states), K), -1, dtype=np.int64)
    for i, q in enumerate(states):
        for j in range(K):
            up[i, j] = index.get(q[:j] + (q[j] + 1,) + q[j + 1:], -1)
            if q[j] > 0:
                down[i, j] = index[q[:j] + (q[j] - 1,) + q[j + 1:]]
    return up, down


def _models(rng):
    wide = (lc.TrafficClass(1.0, 1.0, 1, 1), lc.TrafficClass(1.0, 1.0, 7, 1),
            lc.TrafficClass(0.5, 2.0, 2, 0))
    return [random_model(rng) for _ in range(16)] + [
        (wide, lc.FullSharing(capacity=5)),  # the bandwidth-7 class never fits
        (wide, lc.PerClassThreshold(thresholds=(3, 1, 2))),
    ]


def test_enumeration_matches_box_scan(rng):
    for classes, policy in _models(rng):
        space = lc.enumerate_states(classes, policy)
        states, admits = _box_scan(classes, policy)
        assert space.states == tuple(states)
        assert np.array_equal(space.admissible, admits)


def _policy_admits(classes, policy, occupancy):
    # the policy's admission rule written out: one more call fits
    if isinstance(policy, lc.FullSharing):
        b = np.array([c.bandwidth for c in classes])
        return (occupancy @ b)[:, None] + b <= policy.capacity
    return occupancy < np.array(policy.thresholds)


def test_neighbours_match_loop_reference(rng):
    # 40 classes at C=2: 861 states, but a code range of 4**40, past int64
    models = _models(rng) + [((lc.TrafficClass(1.0, 1.0),) * 40, lc.FullSharing(capacity=2))]
    for classes, policy in models:
        space = lc.enumerate_states(classes, policy)
        up, down = _loop_neighbours(space.states, space.K)
        assert np.array_equal(space.up, up)
        assert np.array_equal(space.down, down)
        assert np.array_equal(space.admissible, _policy_admits(classes, policy, space.occupancy))
        assert all(space.index[q] == i for i, q in enumerate(space.states))


def test_hand_built_space_in_any_order(rng):
    classes, space = k2_reference()
    perm = np.concatenate([[0], 1 + rng.permutation(len(space) - 1)])
    shuffled = lc.StateSpace([space.states[i] for i in perm])
    # state i of the shuffled space is state perm[i] of the sorted one
    where = np.argsort(perm)
    assert np.array_equal(shuffled.occupancy, space.occupancy[perm])
    for new, old in ((shuffled.up, space.up), (shuffled.down, space.down)):
        assert np.array_equal(new, np.where(old[perm] >= 0, where[old[perm]], -1))
    assert np.array_equal(shuffled.admissible, space.admissible[perm])
    assert shuffled.index[(1, 1)] == int(where[space.index[(1, 1)]])


def test_admission_is_membership_on_random_down_sets(rng):
    # drop one maximal state (no successor in any class) from a policy's
    # space: still closed under departures, but no policy here produces it
    for classes, policy in _models(rng):
        full = lc.enumerate_states(classes, policy)
        tops = np.flatnonzero((full.up < 0).all(axis=1) & (full.occupancy.sum(axis=1) > 0))
        if len(tops) == 0:
            continue
        keep = np.delete(np.arange(len(full)), rng.choice(tops))
        space = lc.StateSpace(full.occupancy[keep])
        up, _ = _loop_neighbours(space.states, space.K)
        assert np.array_equal(space.admissible, up >= 0)
        assert lc.verify_consistency(space)


def test_hand_built_down_set():
    # a down-set that neither policy produces
    states = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    classes = (lc.TrafficClass(lam=1.3, mu=1.0, omega=1), lc.TrafficClass(lam=0.6, mu=0.8, omega=2))
    space = lc.StateSpace(states)
    admits = [[(q[0] + 1, q[1]) in states, (q[0], q[1] + 1) in states] for q in states]
    assert space.admissible.tolist() == admits
    dist = lc.stationary(space, classes)
    # oracle: pi Q = 0 with sum pi = 1, one balance equation replaced
    A = lc.build_generator(space, classes).T
    A[-1] = 1.0
    ref = np.linalg.solve(A, np.eye(len(space))[-1])
    np.testing.assert_allclose(dist.pi, ref, rtol=1e-12, atol=0)
    costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
    assert costs.residual <= lc.howard.RESIDUAL_TOL


@pytest.mark.parametrize("states, match", [
    ([], "empty"),
    ([(0, 0), (1,)], "inconsistent dimension"),
    ([0, 1], "inconsistent dimension"),
    ([(0,), (-1,)], ">= 0"),
    ([(0, 0), (1, 0), (1, 0)], "duplicate"),
    ([(1,), (0,)], "empty state at index 0"),
    ([(0, 0), (1, 1)], "not closed under departures"),
])
def test_state_space_rejects(states, match):
    with pytest.raises(lc.ModelError, match=match):
        lc.StateSpace(states)


@pytest.mark.parametrize("policy", [
    lc.FullSharing(capacity=10**9),
    lc.FullSharing(capacity=10**30),  # past int64
    lc.PerClassThreshold(thresholds=(10**30, 1)),
])
def test_cap_is_checked_before_allocating(policy):
    classes = (lc.TrafficClass(1.0, 1.0), lc.TrafficClass(1.0, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(lc.StateSpaceSizeError):
            lc.enumerate_states(classes, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_traffic_class_validation():
    with pytest.raises(lc.ModelError):
        lc.TrafficClass(lam=1.0, mu=0.0)
    with pytest.raises(lc.ModelError):
        lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=0)
    with pytest.raises(lc.ModelError):
        lc.TrafficClass(lam=1.0, mu=1.0, omega=-1)
    with pytest.raises(lc.ModelError):
        lc.TrafficClass(lam=-0.5, mu=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(lc.ModelError, match="arrival rate must be finite"):
            lc.TrafficClass(lam=bad, mu=1.0)
        with pytest.raises(lc.ModelError, match="service rate must be finite"):
            lc.TrafficClass(lam=1.0, mu=bad)


def test_stationary_reference_values():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    np.testing.assert_allclose(dist.pi, np.array([1.0, 1.0, 0.5]) / 2.5, atol=1e-14)
    assert dist.G == pytest.approx(2.5, abs=1e-12)
    assert dist.g == pytest.approx(0.2, abs=1e-12)
    np.testing.assert_allclose(dist.r, [0.0, 0.0, 1.0])


def test_stationary_no_arrivals():
    classes = (lc.TrafficClass(lam=0.0, mu=1.0, omega=3),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    dist = lc.stationary(space, classes)
    assert dist.pi[0] == pytest.approx(1.0)
    assert dist.pi[1:].sum() == 0.0
    assert dist.g == 0.0


def test_stationary_sums_to_one(rng):
    for _ in range(10):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        assert abs(dist.pi.sum() - 1.0) < 1e-12
        assert (dist.pi >= 0).all()


def test_normalization_overflow_reported():
    classes = (lc.TrafficClass(lam=1e160, mu=1.0, omega=1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    dist = lc.stationary(space, classes)
    assert dist.G is None  # not representable; no silent inf
    assert math.isfinite(dist.log_G)
    assert abs(dist.pi.sum() - 1.0) < 1e-12


def test_stationary_refuses_an_infinite_blocking_cost_rate():
    # lam * omega overflows to inf, so r and g would be NaN; the refusal
    # comes before any arithmetic that warns (warnings are errors here)
    classes = (lc.TrafficClass(lam=1e308, mu=1.0, omega=2), lc.TrafficClass(lam=1.0, mu=1.0, omega=1))
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=3))
    with pytest.raises(lc.ModelError, match="blocking-cost rate .* is not finite"):
        lc.stationary(space, classes)


def test_generator_k1_matrix():
    classes, space = k1_instance()
    Q = lc.build_generator(space, classes)
    np.testing.assert_allclose(
        Q, [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]], atol=1e-15
    )


def test_generator_rows_sum_to_zero(rng):
    for _ in range(8):
        classes, space = random_instance(rng)
        Q = lc.build_generator(space, classes)
        np.testing.assert_allclose(Q.sum(axis=1), 0.0, atol=1e-12)


def _loop_generator(space, classes):
    # reference: the dense generator built entry by entry
    n = len(space)
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(space.K):
            if space.admissible[i, j]:
                Q[i, space.up[i, j]] += classes[j].lam
                Q[i, i] -= classes[j].lam
            qj = space.states[i][j]
            if qj > 0:
                Q[i, space.down[i, j]] += classes[j].mu * qj
                Q[i, i] -= classes[j].mu * qj
    return Q


def test_sparse_generator_matches_loop_build(rng):
    mixed = (lc.TrafficClass(1.2, 0.8, 1, 1), lc.TrafficClass(0.6, 1.7, 2, 2),
             lc.TrafficClass(0.9, 1.1, 3, 0))
    instances = [random_instance(rng) for _ in range(16)] + [
        (mixed, lc.enumerate_states(mixed, lc.FullSharing(capacity=9))),
        (mixed, lc.enumerate_states(mixed, lc.PerClassThreshold(thresholds=(3, 2, 4)))),
    ]
    for classes, space in instances:
        Q = lc.sparse_generator(space, classes)
        assert Q.format == "csr"
        assert np.array_equal(Q.toarray(), _loop_generator(space, classes))
        assert np.array_equal(lc.build_generator(space, classes), Q.toarray())


def test_stationary_matches_kaufman_roberts(rng):
    for _ in range(12):
        K = int(rng.integers(1, 5))
        classes = tuple(
            lc.TrafficClass(lam=float(rng.uniform(0.1, 6.0)), mu=float(rng.uniform(0.3, 3.0)),
                            bandwidth=int(rng.integers(1, 4)), omega=int(rng.integers(0, 4)))
            for _ in range(K)
        )
        capacity = int(rng.integers(3, 16))
        space = lc.enumerate_states(classes, lc.FullSharing(capacity=capacity))
        dist = lc.stationary(space, classes)
        blocking, g = kaufman_roberts(classes, capacity)
        np.testing.assert_allclose(lc.blocking_probabilities(space, dist.pi), blocking, rtol=1e-10)
        assert dist.g == pytest.approx(g, rel=1e-10, abs=1e-300)


# C=90 (129,766 states) normalises in log domain
@pytest.mark.parametrize("capacity", [25, 40, 90])
def test_stationary_heavy_load_matches_kaufman_roberts(capacity):
    classes, space = heavy_instance(capacity)
    dist = lc.stationary(space, classes)
    blocking, g = kaufman_roberts(classes, capacity)
    np.testing.assert_allclose(lc.blocking_probabilities(space, dist.pi), blocking, rtol=1e-10)
    assert dist.g == pytest.approx(g, rel=1e-10)


def test_stationary_solves_global_balance(rng):
    # oracle: null space of Q^T, compared entrywise with the product form
    for _ in range(8):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        Q = lc.build_generator(space, classes)
        assert np.max(np.abs(dist.pi @ Q)) < 1e-10
        ns = scipy.linalg.null_space(Q.T)
        assert ns.shape[1] == 1
        ref = ns[:, 0] / ns[:, 0].sum()
        np.testing.assert_allclose(dist.pi, ref, atol=1e-10)


def test_per_class_detailed_balance(rng):
    # mu_j q_j pi(q) = lam_j pi(q - e_j) is the product form's signature
    for _ in range(8):
        classes, space = random_instance(rng)
        dist = lc.stationary(space, classes)
        for i, q in enumerate(space.states):
            for j, c in enumerate(classes):
                if q[j] > 0:
                    dn = space.down[i, j]
                    assert c.mu * q[j] * dist.pi[i] == pytest.approx(
                        c.lam * dist.pi[dn], abs=1e-12
                    )


def test_coordinate_convexity(rng):
    for _ in range(8):
        classes, space = random_instance(rng)
        for i, q in enumerate(space.states):
            for j in range(space.K):
                if q[j] > 0:
                    assert space.down[i, j] >= 0


def test_consistency_holds_for_policies(rng):
    for _ in range(8):
        classes, space = random_instance(rng)
        assert lc.verify_consistency(space)


def test_blocking_probabilities_k1():
    classes, space = k1_instance()
    dist = lc.stationary(space, classes)
    np.testing.assert_allclose(
        lc.blocking_probabilities(space, dist.pi), [0.2], atol=1e-12
    )


def test_k2_reference_sanity():
    classes, space = k2_reference()
    assert len(space) == 9
    dist = lc.stationary(space, classes)
    assert abs(dist.pi.sum() - 1.0) < 1e-12
    assert dist.g > 0
