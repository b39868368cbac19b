"""Reference values for the benchmark's output checks.

Nothing here imports losscost.  Each oracle recomputes a quantity from the
model parameters alone, with a different method from the program's where
one exists, so a check fails when the program is wrong rather than agreeing
with it through shared code:

* Kaufman-Roberts recursion for full-sharing blocking (Kaufman 1981, IEEE
  Trans. Commun. 29:1474; Roberts 1981) and per-class Erlang B for
  thresholds, both independent of any state enumeration;
* the symmetric relative costs from the one-dimensional birth-death chain of
  the total call count;
* a dense reference model (own enumeration, generator and product form) for
  relative costs, expected costs from the empty state, and the compound
  Poisson / compound binomial cost laws by Panjer-type recursions instead of
  the program's knapsack enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse.linalg import expm_multiply


def kaufman_roberts(loads, bandwidths, capacity):
    """Law of the occupied bandwidth c = 0..capacity under full sharing."""
    q = [1.0] + [0.0] * capacity
    for c in range(1, capacity + 1):
        q[c] = sum(r * b * q[c - b] for r, b in zip(loads, bandwidths) if b <= c) / c
    total = math.fsum(q)
    return [x / total for x in q]


def full_sharing_blocking(loads, bandwidths, capacity):
    """Per-class blocking: the occupied bandwidth leaves less than b_j free."""
    p = kaufman_roberts(loads, bandwidths, capacity)
    return [math.fsum(p[capacity - b + 1:]) for b in bandwidths]


def erlang_b(load, servers):
    b = 1.0
    for k in range(1, servers + 1):
        b = load * b / (k + load * b)
    return b


def full_sharing_state_count(bandwidths, capacity):
    """Number of call-count vectors with sum_j b_j q_j <= capacity."""
    ways = [1] + [0] * capacity
    for b in bandwidths:
        for c in range(b, capacity + 1):
            ways[c] += ways[c - b]
    return sum(ways)


def symmetric_relative_costs(lam_total, mu, capacity, g):
    """v(n) for n = 0..capacity when every class has bandwidth 1 and rate mu.

    The total call count is a birth-death chain; the policy equation on it,
    lam (v(n+1) - v(n)) - n mu (v(n) - v(n-1)) = g - r(n) with r(n) = 0 below
    capacity, fixes the increments d(n) = v(n+1) - v(n) from d(-1) = 0.
    """
    v = [0.0]
    d = 0.0
    for n in range(capacity):
        d = (g + n * mu * d) / lam_total
        v.append(v[-1] + d)
    return v


class Reference:
    """Dense reference for one small model: states, generator, product form.

    ``capacity`` selects full sharing, ``thresholds`` per-class caps.  States
    are keyed by their call-count tuples, never by the program's indices.
    """

    def __init__(self, lam, mu, bandwidth, omega, capacity=None, thresholds=None):
        self.lam = np.array(lam, dtype=float)
        self.mu = np.array(mu, dtype=float)
        self.bw = tuple(bandwidth)
        self.omega = np.array(omega, dtype=np.int64)
        K = len(self.bw)
        if thresholds is None:
            limits = [capacity // b for b in self.bw]
        else:
            limits = list(thresholds)
        states = [
            q for q in itertools.product(*(range(l + 1) for l in limits))
            if thresholds is not None or sum(x * b for x, b in zip(q, self.bw)) <= capacity
        ]
        self.states = sorted(states)
        self.index = {q: i for i, q in enumerate(self.states)}
        n = len(self.states)
        occ = np.array(self.states, dtype=float)
        self.admits = np.zeros((n, K), dtype=bool)
        for i, q in enumerate(self.states):
            for j in range(K):
                up = q[:j] + (q[j] + 1,) + q[j + 1:]
                self.admits[i, j] = up in self.index
        self.rate = (~self.admits * (self.lam * self.omega)).sum(axis=1)
        logw = (occ * np.log(self.lam / self.mu)).sum(axis=1) - np.array(
            [sum(math.lgamma(x + 1) for x in q) for q in self.states])
        w = np.exp(logw - logw.max())
        self.pi = w / w.sum()
        self.g = float(self.pi @ self.rate)
        self.occupancy = occ
        self._Q = None

    def generator(self):
        if self._Q is None:
            self._Q = self._build_generator()
        return self._Q

    def _build_generator(self):
        n, K = self.admits.shape
        Q = np.zeros((n, n))
        for i, q in enumerate(self.states):
            for j in range(K):
                if self.admits[i, j]:
                    Q[i, self.index[q[:j] + (q[j] + 1,) + q[j + 1:]]] += self.lam[j]
                if q[j] > 0:
                    Q[i, self.index[q[:j] + (q[j] - 1,) + q[j + 1:]]] += self.mu[j] * q[j]
        Q -= np.diag(Q.sum(axis=1))
        return Q

    def relative_costs(self):
        """Policy-equation solution with v(empty) = 0.

        Anchored at the most likely state, where the anchored system is best
        conditioned, then shifted; prices are differences, so the shift is
        harmless.
        """
        a = int(np.argmax(self.pi))
        A = self.generator().copy()
        rhs = self.g - self.rate
        A[a, :] = 0.0
        A[a, a] = 1.0
        rhs[a] = 0.0
        v = np.linalg.solve(A, rhs)
        return v - v[0]

    def residual(self, v):
        """Max-norm residual of the policy equation for v (aligned to states)."""
        return float(np.max(np.abs(self.generator() @ v - (self.g - self.rate))))

    def expected_cost_from_empty(self, t):
        """E[cost accrued over [0, t]] from the empty state, via the
        augmented generator [[Q, r], [0, 0]] whose exponential's corner is
        the integral of exp(Qs) r."""
        n = len(self.states)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.generator()
        M[:n, n] = self.rate
        start = np.zeros(n + 1)
        start[0] = 1.0
        return float(expm_multiply(M.T * t, start)[n])

    def discrete_mean_from_empty(self, t, steps):
        """Mean cost of the step-dt chain I + dt Q started empty."""
        dt = t / steps
        P = np.eye(len(self.states)) + dt * self.generator()
        p = np.zeros(len(self.states))
        p[0] = 1.0
        mean = 0.0
        for _ in range(steps):
            mean += dt * float(p @ self.rate)
            p = p @ P
        return mean

    def _masks(self):
        """Charging-class mask per state; blocked classes with cost > 0."""
        charge = ~self.admits & (self.omega > 0) & (self.lam > 0)
        return [tuple(np.flatnonzero(row)) for row in charge]

    def compound_poisson(self, t, mask, r_max):
        """Panjer recursion: f(r) = (1/r) sum_j t lam_j omega_j f(r - omega_j)."""
        f = np.zeros(r_max + 1)
        f[0] = math.exp(-t * sum(self.lam[j] for j in mask))
        for r in range(1, r_max + 1):
            f[r] = sum(t * self.lam[j] * self.omega[j] * f[r - self.omega[j]]
                       for j in mask if self.omega[j] <= r) / r
        return f

    def compound_binomial(self, t, steps, mask, r_max):
        """Law after ``steps`` steps of size dt in which each charging class j
        adds omega_j with probability dt lam_j; mass past r_max is dropped."""
        dt = t / steps
        f = np.zeros(r_max + 1)
        f[0] = 1.0
        stay = 1.0 - dt * sum(self.lam[j] for j in mask)
        for _ in range(steps):
            new = stay * f
            for j in mask:
                w = int(self.omega[j])
                new[w:] += dt * self.lam[j] * f[:len(f) - w]
            f = new
        return f

    def cell_laws(self, law):
        """Per-state cost law pi(q) f_q as an array (states, r), one law per mask."""
        laws = {}
        rows = []
        for i, mask in enumerate(self._masks()):
            if mask not in laws:
                laws[mask] = law(mask)
            rows.append(self.pi[i] * laws[mask])
        return np.array(rows)

    def closed_cells(self, t, r_max):
        return self.cell_laws(lambda m: self.compound_poisson(t, m, r_max))

    def simple_discrete_total(self, t, steps, r_max):
        return self.cell_laws(lambda m: self.compound_binomial(t, steps, m, r_max)).sum(axis=0)

    def balance_violation(self, t, r_limit):
        """Largest |mu_k (q_k+1) s(q+e_k, r) - lam_k s(q, r)| over states,
        classes and r <= r_limit, under the product-form cost law s = pi f_q."""
        cells = self.closed_cells(t, r_limit)
        worst = 0.0
        for i, q in enumerate(self.states):
            for k in range(len(self.bw)):
                if self.admits[i, k]:
                    u = self.index[q[:k] + (q[k] + 1,) + q[k + 1:]]
                    gap = np.abs(self.mu[k] * (q[k] + 1) * cells[u] - self.lam[k] * cells[i])
                    worst = max(worst, float(gap.max()))
        return worst
