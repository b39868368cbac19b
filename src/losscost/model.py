"""Multiservice loss system: traffic classes, admission policies, state space.

A single link of integer capacity is shared by K call classes.  Class j calls
arrive in a Poisson stream of rate ``lam``, hold ``bandwidth`` capacity units
for an exponential time with rate ``mu``, and cost ``omega`` units when
blocked.  The admission policy decides which classes are accepted in each
occupancy state; the accepted region is coordinate convex for the two
policies implemented here, which is exactly the condition under which the
occupancy has a product-form stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse

__all__ = [
    "ModelError",
    "StateSpaceSizeError",
    "NumericsError",
    "TrafficClass",
    "FullSharing",
    "PerClassThreshold",
    "AdmissionPolicy",
    "StateSpace",
    "StationaryDistribution",
    "enumerate_states",
    "build_generator",
    "sparse_generator",
    "verify_consistency",
    "stationary",
    "blocking_probabilities",
    "DEFAULT_STATE_CAP",
]

DEFAULT_STATE_CAP = 2_000_000

# Above this size the normalization constant is accumulated in log domain
# instead of compensated long-double summation.
_LOG_DOMAIN_THRESHOLD = 100_000


class ModelError(ValueError):
    """Invalid model parameters or an inconsistent state space."""


class StateSpaceSizeError(ModelError):
    """State space would exceed the configured enumeration cap."""


class NumericsError(RuntimeError):
    """A numeric result is not representable or not trustworthy."""


def _check_horizon(t: float) -> float:
    if not (math.isfinite(t) and t > 0):
        raise ModelError(f"horizon must be finite and > 0, got {t}")
    return t


@dataclass(frozen=True)
class TrafficClass:
    """One call class: arrival rate, service rate, bandwidth, blocking cost.

    ``omega`` must be an integer so that accumulated blocking cost stays on
    an integer lattice; the cost-distribution recursions rely on this.
    """

    lam: float
    mu: float
    bandwidth: int = 1
    omega: int = 0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ModelError(f"arrival rate must be >= 0, got {self.lam}")
        if self.mu <= 0:
            raise ModelError(f"service rate must be > 0, got {self.mu}")
        if not isinstance(self.bandwidth, (int, np.integer)) or self.bandwidth < 1:
            raise ModelError(f"bandwidth must be a positive integer, got {self.bandwidth}")
        if not isinstance(self.omega, (int, np.integer)) or self.omega < 0:
            raise ModelError(f"blocking cost must be a non-negative integer, got {self.omega}")

    @property
    def rho(self) -> float:
        """Offered load lam/mu."""
        return self.lam / self.mu


@dataclass(frozen=True)
class FullSharing:
    """Complete sharing of ``capacity`` units: class j is admitted in state q
    iff the occupied capacity plus one more class-j call fits."""

    capacity: int

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, (int, np.integer)) or self.capacity < 1:
            raise ModelError(f"capacity must be a positive integer, got {self.capacity}")

    def admits(self, q: Sequence[int], classes: Sequence[TrafficClass], j: int) -> bool:
        used = sum(qk * ck.bandwidth for qk, ck in zip(q, classes))
        return used <= self.capacity - classes[j].bandwidth


@dataclass(frozen=True)
class PerClassThreshold:
    """Separate cap per class: class j is admitted iff q_j < thresholds[j]."""

    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        if not self.thresholds or any(t < 1 for t in self.thresholds):
            raise ModelError(f"thresholds must be positive integers, got {self.thresholds}")

    def admits(self, q: Sequence[int], classes: Sequence[TrafficClass], j: int) -> bool:
        return q[j] < self.thresholds[j]


AdmissionPolicy = Union[FullSharing, PerClassThreshold]


class StateSpace:
    """Enumerated admitted states with dense indexing and neighbour lookups.

    States are lexicographically ordered tuples of per-class call counts;
    index 0 is always the empty state.  ``admissible[i, j]`` says whether a
    class-j arrival is accepted in state i, ``up[i, j]``/``down[i, j]`` hold
    the dense index of the state after an accepted arrival / a departure
    (-1 when there is no such state).
    """

    def __init__(self, states: Sequence[tuple[int, ...]], admissible: np.ndarray):
        self.states: tuple[tuple[int, ...], ...] = tuple(tuple(int(x) for x in q) for q in states)
        if not self.states:
            raise ModelError("state space is empty")
        self.K = len(self.states[0])
        if any(len(q) != self.K for q in self.states):
            raise ModelError("states have inconsistent dimension")
        self.index: dict[tuple[int, ...], int] = {q: i for i, q in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ModelError("duplicate states")
        if self.states[0] != (0,) * self.K:
            raise ModelError("state space must contain the empty state at index 0")
        self.admissible = np.asarray(admissible, dtype=bool)
        if self.admissible.shape != (len(self.states), self.K):
            raise ModelError("admissible mask has wrong shape")
        self.occupancy = np.array(self.states, dtype=np.int64)

        n = len(self.states)
        self.up = np.full((n, self.K), -1, dtype=np.int64)
        self.down = np.full((n, self.K), -1, dtype=np.int64)
        for i, q in enumerate(self.states):
            for j in range(self.K):
                upq = q[:j] + (q[j] + 1,) + q[j + 1:]
                if upq in self.index:
                    self.up[i, j] = self.index[upq]
                if q[j] > 0:
                    dnq = q[:j] + (q[j] - 1,) + q[j + 1:]
                    self.down[i, j] = self.index[dnq]

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"StateSpace(K={self.K}, states={len(self.states)})"

    def admitted_classes(self, i: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.admissible[i]))

    def blocked_classes(self, i: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.admissible[i]))


def enumerate_states(
    classes: Sequence[TrafficClass],
    policy: AdmissionPolicy,
    cap: int = DEFAULT_STATE_CAP,
) -> StateSpace:
    """Enumerate the states reachable from empty under the admission policy.

    Breadth-first closure under accepted arrivals; departures never leave the
    set because the reachable region is coordinate convex for both policies.
    Raises :class:`StateSpaceSizeError` when more than ``cap`` states are
    found.
    """
    classes = tuple(classes)
    K = len(classes)
    if K < 1:
        raise ModelError("need at least one traffic class")
    if isinstance(policy, PerClassThreshold) and len(policy.thresholds) != K:
        raise ModelError(
            f"policy has {len(policy.thresholds)} thresholds for {K} classes"
        )

    empty = (0,) * K
    seen = {empty}
    frontier = [empty]
    while frontier:
        nxt = []
        for q in frontier:
            for j in range(K):
                if policy.admits(q, classes, j):
                    upq = q[:j] + (q[j] + 1,) + q[j + 1:]
                    if upq not in seen:
                        seen.add(upq)
                        if len(seen) > cap:
                            raise StateSpaceSizeError(
                                f"state space exceeds cap of {cap} states"
                            )
                        nxt.append(upq)
        frontier = nxt

    states = sorted(seen)
    admissible = np.zeros((len(states), K), dtype=bool)
    for i, q in enumerate(states):
        for j in range(K):
            admissible[i, j] = policy.admits(q, classes, j)
    return StateSpace(states, admissible)


def verify_consistency(space: StateSpace) -> bool:
    """Check that the admission mask and the state set agree.

    True iff for every state q and class j the mask bit matches membership of
    q + e_j: a blocked class must have no successor state (no sneak path into
    it either), and an admitted class must have one.  Both admission policies
    above satisfy this by construction; a hand-built space may not.
    ``space.up`` already records membership of q + e_j, so this is one array
    comparison.
    """
    return bool(np.array_equal(space.admissible, space.up >= 0))


def sparse_generator(
    space: StateSpace, classes: Sequence[TrafficClass]
) -> scipy.sparse.csr_matrix:
    """Continuous-time generator in CSR form: arrivals at rate lam into
    admitted successors, departures at rate mu * q_j, diagonal = -row sum.

    Raises :class:`ModelError` when an admitted class has no successor state.
    """
    classes = tuple(classes)
    n = len(space)
    orphan = np.argwhere(space.admissible & (space.up < 0))
    if len(orphan):
        i, j = orphan[0]
        raise ModelError(
            f"state {space.states[i]} admits class {j} but has no successor"
        )
    lam = np.array([c.lam for c in classes])
    mu = np.array([c.mu for c in classes])
    arrive = np.where(space.admissible, lam, 0.0)
    depart = mu * space.occupancy
    # the diagonal is accumulated class by class, arrival before departure,
    # so that it is bit-identical to a per-entry build
    diag = np.zeros(n)
    for j in range(space.K):
        diag -= arrive[:, j]
        diag -= depart[:, j]
    ui, uj = np.nonzero(space.admissible)
    di, dj = np.nonzero(space.occupancy)
    rows = np.arange(n)
    return scipy.sparse.csr_matrix(
        (
            np.concatenate([lam[uj], depart[di, dj], diag]),
            (
                np.concatenate([ui, di, rows]),
                np.concatenate([space.up[ui, uj], space.down[di, dj], rows]),
            ),
        ),
        shape=(n, n),
    )


def build_generator(space: StateSpace, classes: Sequence[TrafficClass]) -> np.ndarray:
    """Dense form of :func:`sparse_generator`; n x n memory, for small models."""
    return sparse_generator(space, classes).toarray()


@dataclass(frozen=True)
class StationaryDistribution:
    """Product-form stationary law with its normalization and cost rate.

    ``G`` is None when the normalization constant overflows float range; the
    distribution itself is still exact (computed in log domain) and ``log_G``
    is always finite.  ``r`` holds the per-state blocking-cost rate
    sum_{j blocked} omega_j * lam_j and ``g = pi . r`` the long-run average
    cost rate.
    """

    pi: np.ndarray
    log_G: float
    G: float | None
    r: np.ndarray
    g: float


def _log_weights(space: StateSpace, classes: Sequence[TrafficClass]) -> np.ndarray:
    from scipy.special import gammaln

    occ = space.occupancy
    logw = np.zeros(len(space))
    for j, c in enumerate(classes):
        qj = occ[:, j]
        if c.lam == 0.0:
            # only q_j = 0 carries mass
            logw = np.where(qj > 0, -np.inf, logw)
            continue
        logw = logw + qj * math.log(c.rho) - gammaln(qj + 1.0)
    return logw


def _kahan_sum(terms: np.ndarray) -> np.longdouble:
    total = np.longdouble(0.0)
    comp = np.longdouble(0.0)
    for t in terms:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def stationary(
    space: StateSpace, classes: Sequence[TrafficClass]
) -> StationaryDistribution:
    """Stationary distribution pi(q) = G^-1 prod_j rho_j^q_j / q_j! over the
    admitted states, with the average blocking-cost rate.

    The admission mask is verified against the state set first
    (:func:`verify_consistency`); the product form is only valid then.
    """
    classes = tuple(classes)
    if len(classes) != space.K:
        raise ModelError(f"{len(classes)} classes for K={space.K} space")
    if not verify_consistency(space):
        raise ModelError(
            "admission mask inconsistent with state set; product form does not apply"
        )

    logw = _log_weights(space, classes)
    m = float(np.max(logw))
    if len(space) <= _LOG_DOMAIN_THRESHOLD:
        scaled = np.exp((logw - m).astype(np.longdouble))
        total = _kahan_sum(scaled)
        pi = (scaled / total).astype(np.float64)
        log_G = m + float(np.log(total))
    else:
        from scipy.special import logsumexp

        log_G = float(logsumexp(logw))
        pi = np.exp(logw - log_G)

    if not np.isfinite(log_G):
        raise NumericsError("normalization constant is not finite")
    try:
        G: float | None = math.exp(log_G)
    except OverflowError:
        G = None

    lam = np.array([c.lam for c in classes])
    omega = np.array([float(c.omega) for c in classes])
    r = ((~space.admissible) * (lam * omega)).sum(axis=1)
    g = float(pi @ r)
    return StationaryDistribution(pi=pi, log_G=log_G, G=G, r=r, g=g)


def blocking_probabilities(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Per-class probability that an arriving call is blocked (PASTA)."""
    return np.array(
        [float(pi[~space.admissible[:, j]].sum()) for j in range(space.K)]
    )
