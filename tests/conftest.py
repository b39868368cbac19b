"""Shared instances and random-model generators for the test suite."""

import numpy as np
import pytest

import losscost as lc


def k1_instance():
    """Single class, lam = mu = omega = bandwidth = 1, capacity 2.

    Hand-derived reference values: pi = (0.4, 0.4, 0.2), G = 2.5, g = 0.2,
    relative costs (0, 0.2, 0.6), shadow prices (0.2, 0.4).
    """
    classes = (lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1, omega=1),)
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=2))
    return classes, space


def k2_reference():
    """Two classes with distinct bandwidths and costs on a shared link."""
    classes = (
        lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1, omega=1),
        lc.TrafficClass(lam=0.5, mu=1.0, bandwidth=2, omega=2),
    )
    space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
    return classes, space


def random_instance(rng, symmetric=False, max_classes=3, max_capacity=12):
    """Random small instance; both policy kinds, loads spanning light to heavy."""
    classes, policy = random_model(rng, symmetric, max_classes, max_capacity)
    return classes, lc.enumerate_states(classes, policy)


def random_model(rng, symmetric=False, max_classes=3, max_capacity=12):
    """The classes and admission policy of :func:`random_instance`."""
    K = int(rng.integers(1, max_classes + 1))
    if symmetric:
        mu = float(rng.uniform(0.5, 2.0))
        b = int(rng.integers(1, 3))
        classes = tuple(
            lc.TrafficClass(lam=float(rng.uniform(0.1, 3.0)), mu=mu, bandwidth=b,
                            omega=int(rng.integers(0, 4)))
            for _ in range(K)
        )
        policy = lc.FullSharing(capacity=b * int(rng.integers(2, max_capacity + 1)))
    else:
        classes = tuple(
            lc.TrafficClass(
                lam=float(rng.uniform(0.1, 3.0)),
                mu=float(rng.uniform(0.3, 3.0)),
                bandwidth=int(rng.integers(1, 4)),
                omega=int(rng.integers(0, 4)),
            )
            for _ in range(K)
        )
        if rng.random() < 0.5:
            policy = lc.FullSharing(capacity=int(rng.integers(2, max_capacity + 1)))
        else:
            policy = lc.PerClassThreshold(
                thresholds=tuple(int(rng.integers(1, 5)) for _ in range(K))
            )
    return classes, policy


def heavy_instance(capacity):
    """Heavy load: three unit-bandwidth classes with rho_k = C/4 on one link,
    blocking costs (1, 2, 3).  The empty state carries almost no mass."""
    classes = tuple(
        lc.TrafficClass(lam=capacity / 4, mu=1.0, bandwidth=1, omega=w) for w in (1, 2, 3)
    )
    return classes, lc.enumerate_states(classes, lc.FullSharing(capacity=capacity))


def loop_simple_costs(space, classes, horizon, steps, r_max):
    """Reference: the simple-scheme step written out per blocked class, from
    the stationary occupancy."""
    dt = horizon / steps
    mass = np.zeros((len(space), r_max + 1))
    mass[:, 0] = lc.stationary(space, classes).pi
    leakage = 0.0
    for _ in range(steps):
        new = mass.copy()
        for j, c in enumerate(classes):
            blocked = ~space.admissible[:, j]
            if c.omega == 0 or not blocked.any():
                continue
            w = c.omega
            new[blocked] -= dt * c.lam * mass[blocked]
            if w <= r_max:
                new[blocked, w:] += dt * c.lam * mass[blocked, :-w]
            leakage += dt * c.lam * mass[blocked, max(0, r_max - w + 1):].sum()
        mass = new
    return mass, leakage


def kaufman_roberts(classes, capacity):
    """Full-sharing blocking probabilities and average cost rate g from the
    Kaufman-Roberts recursion c P(c) = sum_k rho_k b_k P(c - b_k) over the
    occupied capacity c: O(C K) work, no state enumeration."""
    P = np.zeros(capacity + 1)
    P[0] = 1.0
    for c in range(1, capacity + 1):
        P[c] = sum(cl.rho * cl.bandwidth * P[c - cl.bandwidth]
                   for cl in classes if cl.bandwidth <= c) / c
        if P[c] > 1e200:
            P[: c + 1] /= P[c]
    P /= P.sum()
    blocking = np.array([P[capacity - cl.bandwidth + 1:].sum() for cl in classes])
    g = float(sum(cl.lam * cl.omega * b for cl, b in zip(classes, blocking)))
    return blocking, g


def implied_cost_sides(space, classes, dist, v):
    """Both sides of the implied-cost identity, one (lhs, rhs) pair per class
    with lam_k > 0:

        sum_q pi(q) adm_k(q) (v(q + e_k) - v(q)) = Cov_pi(r, q_k) / lam_k.

    Differentiating g = pi . r in lam_k through Howard's equation gives the
    left side, through the product form of pi the right side (Kelly's
    implied costs).  It needs no solve, so it checks any v at any size."""
    sides = []
    for k, c in enumerate(classes):
        if c.lam == 0.0:
            continue
        adm = space.admissible[:, k]
        price = v[space.up[adm, k]] - v[adm]
        lhs = float(dist.pi[adm] @ price)
        q_k = space.occupancy[:, k]
        rhs = float(dist.pi @ ((dist.r - dist.g) * (q_k - dist.pi @ q_k))) / c.lam
        sides.append((lhs, rhs))
    return sides


def threshold_factor_solution(classes, thresholds):
    """Exact v and g of a per-class threshold model from its K one-class
    models.  Classes never interact under thresholds, so the chain is K
    independent M/M/T_k/T_k queues: g = sum_k g_k and
    v(q) = sum_k v_k(q_k), each v_k anchored at its empty state.  Returns
    the space, v and g."""
    space = lc.enumerate_states(classes, lc.PerClassThreshold(thresholds))
    v, g = np.zeros(len(space)), 0.0
    for k, (c, t) in enumerate(zip(classes, thresholds)):
        one = lc.enumerate_states((c,), lc.PerClassThreshold((t,)))
        dist = lc.stationary(one, (c,))
        v_k = np.empty(t + 1)
        v_k[one.occupancy[:, 0]] = lc.solve_howard_exact(one, (c,), dist.g, dist.r).v
        v += v_k[space.occupancy[:, k]]
        g += dist.g
    return space, v, g


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
