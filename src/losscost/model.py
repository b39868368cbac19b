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

import functools
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

_INT64_MAX = int(np.iinfo(np.int64).max)


class ModelError(ValueError):
    """Invalid model parameters or an inconsistent state space; ``field``
    names the parameter at fault, where there is one."""

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


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
        # NaN fails every comparison, so each check is written to pass only
        # valid rates
        if not (0 <= self.lam < math.inf):
            raise ModelError(f"arrival rate must be finite and >= 0, got {self.lam}", "lam")
        if not (0 < self.mu < math.inf):
            raise ModelError(f"service rate must be finite and > 0, got {self.mu}", "mu")
        if not isinstance(self.bandwidth, (int, np.integer)) or self.bandwidth < 1:
            raise ModelError(f"bandwidth must be a positive integer, got {self.bandwidth}", "bandwidth")
        if not isinstance(self.omega, (int, np.integer)) or self.omega < 0:
            raise ModelError(f"blocking cost must be a non-negative integer, got {self.omega}", "omega")

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

    def admission_mask(self, occupancy: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        """``mask[i, j]``: one more class-j call fits beside occupancy row i."""
        b = np.array([c.bandwidth for c in classes], dtype=np.int64)
        return (occupancy @ b)[:, None] <= self.capacity - b

    def _max_calls(self, prefix: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        # most calls of class j = prefix.shape[1] that fit beside each prefix
        # row; a capacity past int64 is clamped so that it meets the state
        # cap instead of overflowing
        j = prefix.shape[1]
        used = prefix @ np.array([c.bandwidth for c in classes[:j]], dtype=np.int64)
        return (min(self.capacity, _INT64_MAX) - used) // classes[j].bandwidth


@dataclass(frozen=True)
class PerClassThreshold:
    """Separate cap per class: class j is admitted iff q_j < thresholds[j]."""

    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        if not self.thresholds or any(t < 1 for t in self.thresholds):
            raise ModelError(f"thresholds must be positive integers, got {self.thresholds}")

    def admission_mask(self, occupancy: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        """``mask[i, j]``: occupancy row i holds fewer than ``thresholds[j]``
        class-j calls."""
        return occupancy < np.array(self.thresholds, dtype=np.int64)

    def _max_calls(self, prefix: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        return np.full(len(prefix), min(self.thresholds[prefix.shape[1]], _INT64_MAX))


AdmissionPolicy = Union[FullSharing, PerClassThreshold]


class StateSpace:
    """Admitted states with dense indexing and neighbour lookups.

    ``occupancy[i]`` holds the per-class call counts of state i; index 0 is
    always the empty state, and :func:`enumerate_states` orders the states
    lexicographically.  ``admissible[i, j]`` says whether a class-j arrival
    is accepted in state i, ``up[i, j]``/``down[i, j]`` hold the dense index
    of the state after an accepted arrival / a departure (-1 when there is
    no such state).  ``states`` (a tuple of tuples) and ``index`` (tuple ->
    dense index) are built on first use.

    The constructor accepts the states in any order.  Neighbours are found
    by binary search on mixed-radix codes (last class fastest, radix
    max q_j + 2, so that q + e_j and q - e_j have codes of their own); codes
    that would pass int64 are Python integers, which order the same way.
    """

    def __init__(self, states: Sequence[Sequence[int]] | np.ndarray, admissible: np.ndarray):
        if len(states) == 0:
            raise ModelError("state space is empty")
        try:
            occ = np.array(states, dtype=np.int64)
        except ValueError:
            raise ModelError("states have inconsistent dimension") from None
        if occ.ndim != 2:
            raise ModelError("states have inconsistent dimension")
        if (occ < 0).any():
            raise ModelError("call counts must be >= 0")
        n, self.K = occ.shape
        radix = [int(m) + 2 for m in occ.max(axis=0)]
        dtype = np.int64 if math.prod(radix) <= _INT64_MAX else object
        stride = np.array([math.prod(radix[j + 1:]) for j in range(self.K)], dtype=dtype)
        codes = occ.astype(dtype) @ stride
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        if (sorted_codes[1:] == sorted_codes[:-1]).any():
            raise ModelError("duplicate states")
        if occ[0].any():
            raise ModelError("state space must contain the empty state at index 0")
        self.admissible = np.asarray(admissible, dtype=bool)
        if self.admissible.shape != (n, self.K):
            raise ModelError("admissible mask has wrong shape")
        self.occupancy = occ

        def find(target: np.ndarray) -> np.ndarray:
            pos = np.minimum(np.searchsorted(sorted_codes, target), n - 1)
            return np.where(sorted_codes[pos] == target, order[pos], -1)

        # a neighbour outside the box (q_j + 1 past max q_j, or q_j - 1 = -1,
        # which borrows) gets digit max q_j + 1 or a negative code: no state
        self.up = find(codes[:, None] + stride)
        self.down = find(codes[:, None] - stride)
        if (self.down[occ > 0] < 0).any():
            raise ModelError("state space is not closed under departures")

    @functools.cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.occupancy.tolist()))

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {q: i for i, q in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.occupancy)

    def __repr__(self) -> str:
        return f"StateSpace(K={self.K}, states={len(self)})"

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

    Both policies admit a coordinate-convex region, so the reachable states
    are all q with q_j <= t_j (thresholds) or sum_j q_j b_j <= C (full
    sharing).  They are built class by class as integer rows: each partial
    row for classes 0..j-1 is repeated once for every count class j can
    still take (``(C - used) // b_j + 1`` or ``t_j + 1``), which keeps the
    rows in lexicographic order.  Raises :class:`StateSpaceSizeError` when
    more than ``cap`` states would be built, before allocating them.
    """
    classes = tuple(classes)
    K = len(classes)
    if K < 1:
        raise ModelError("need at least one traffic class")
    if isinstance(policy, PerClassThreshold) and len(policy.thresholds) != K:
        raise ModelError(
            f"policy has {len(policy.thresholds)} thresholds for {K} classes"
        )

    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(K):
        # clipped so that the sum cannot overflow; any clipped count is
        # already past the cap
        counts = np.minimum(policy._max_calls(occ, classes), cap) + 1
        n = int(counts.sum())
        if n > cap:
            raise StateSpaceSizeError(f"state space exceeds cap of {cap} states")
        start = np.cumsum(counts) - counts
        occ = np.column_stack(
            [np.repeat(occ, counts, axis=0), np.arange(n) - np.repeat(start, counts)]
        )
    return StateSpace(occ, policy.admission_mask(occ, classes))


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
    occ = space.occupancy
    top = int(occ.max(initial=0))
    log_factorial = np.fromiter(map(math.lgamma, range(1, top + 2)), float, top + 1)
    logw = np.zeros(len(space))
    for j, c in enumerate(classes):
        qj = occ[:, j]
        if c.lam == 0.0:
            # only q_j = 0 carries mass
            logw = np.where(qj > 0, -np.inf, logw)
            continue
        logw = logw + qj * math.log(c.rho) - log_factorial[qj]
    return logw


def _charging(space: StateSpace, classes: Sequence[TrafficClass]):
    """(lam, omega, mask): class j charges in state i when it is blocked there
    with lam_j > 0 and omega_j > 0; other blocked classes never move cost
    mass and are marginalized out exactly."""
    lam = np.array([c.lam for c in classes], dtype=float)
    omega = np.array([c.omega for c in classes], dtype=np.int64)
    return lam, omega, ~space.admissible & (lam > 0) & (omega > 0)


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
    # weights scaled to a maximum of 1, summed correctly rounded
    scaled = np.exp(logw - m)
    total = math.fsum(scaled)
    pi = scaled / total
    log_G = m + math.log(total)

    if not np.isfinite(log_G):
        raise NumericsError("normalization constant is not finite")
    try:
        G: float | None = math.exp(log_G)
    except OverflowError:
        G = None

    lam, omega, charge = _charging(space, classes)
    r = (charge * (lam * omega)).sum(axis=1)
    g = float(pi @ r)
    return StationaryDistribution(pi=pi, log_G=log_G, G=G, r=r, g=g)


def blocking_probabilities(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Per-class probability that an arriving call is blocked (PASTA)."""
    return np.array(
        [float(pi[~space.admissible[:, j]].sum()) for j in range(space.K)]
    )
