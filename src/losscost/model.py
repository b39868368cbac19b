"""Multiservice loss system: traffic classes, admission policies, state space.

A single link of integer capacity is shared by K call classes.  Class j calls
arrive in a Poisson stream of rate ``lam``, hold ``bandwidth`` capacity units
for an exponential time with rate ``mu``, and cost ``omega`` units when
blocked.  An admission policy defines the set of occupancy states; both
policies here give a coordinate-convex set (closed under departures), which
is exactly the condition under which the occupancy has a product-form
stationary law.  Admission follows from the set: a class-j arrival in state
q is accepted iff q + e_j is a state.
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
    """Complete sharing of ``capacity`` units: the states are the q whose
    occupied capacity sum_j q_j b_j fits, so class j is admitted in state q
    iff one more class-j call fits beside it."""

    capacity: int

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, (int, np.integer)) or self.capacity < 1:
            raise ModelError(f"capacity must be a positive integer, got {self.capacity}")

    def _max_calls(self, prefix: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        # most calls of class j = prefix.shape[1] that fit beside each prefix
        # row; a capacity past int64 is clamped so that it meets the state
        # cap instead of overflowing
        j = prefix.shape[1]
        used = prefix @ np.array([c.bandwidth for c in classes[:j]], dtype=np.int64)
        return (min(self.capacity, _INT64_MAX) - used) // classes[j].bandwidth


@dataclass(frozen=True)
class PerClassThreshold:
    """Separate cap per class: the states are the q with q_j <= thresholds[j],
    so class j is admitted iff q_j < thresholds[j]."""

    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        if not self.thresholds or any(t < 1 for t in self.thresholds):
            raise ModelError(f"thresholds must be positive integers, got {self.thresholds}")

    def _max_calls(self, prefix: np.ndarray, classes: Sequence[TrafficClass]) -> np.ndarray:
        return np.full(len(prefix), min(self.thresholds[prefix.shape[1]], _INT64_MAX))


AdmissionPolicy = Union[FullSharing, PerClassThreshold]


class StateSpace:
    """A coordinate-convex state set with dense indexing and neighbour lookups.

    ``occupancy[i]`` holds the per-class call counts of state i; index 0 is
    always the empty state, and :func:`enumerate_states` orders the states
    lexicographically.  ``up[i, j]``/``down[i, j]`` hold the dense index of
    q + e_j / q - e_j (-1 when there is no such state).  Admission is
    membership: ``admissible[i, j]`` (a class-j arrival is accepted in state
    i) is ``up[i, j] >= 0``, so every accepted arrival has a successor and,
    the set being closed under departures, so does every departure.
    ``states`` (a tuple of tuples) and ``index`` (tuple -> dense index) are
    built on first use.

    The constructor accepts the states in any order.  Neighbours are found
    by binary search on mixed-radix codes (last class fastest, radix
    max q_j + 2, so that q + e_j and q - e_j have codes of their own); codes
    that would pass int64 are Python integers, which order the same way.
    """

    def __init__(self, states: Sequence[Sequence[int]] | np.ndarray):
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
        # a column at a time: numpy's max over axis 0 of a narrow int64
        # matrix is several times slower
        radix = [int(column.max()) + 2 for column in occ.T]
        dtype = np.int64 if math.prod(radix) <= _INT64_MAX else object
        stride = np.array([math.prod(radix[j + 1:]) for j in range(self.K)], dtype=dtype)
        codes = occ.astype(dtype) @ stride
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        if (sorted_codes[1:] == sorted_codes[:-1]).any():
            raise ModelError("duplicate states")
        if occ[0].any():
            raise ModelError("state space must contain the empty state at index 0")
        self.occupancy = occ

        def find(target: np.ndarray) -> np.ndarray:
            pos = np.minimum(np.searchsorted(sorted_codes, target), n - 1)
            return np.where(sorted_codes[pos] == target, order[pos], -1)

        # a neighbour outside the box (q_j + 1 past max q_j, or q_j - 1 = -1,
        # which borrows) gets digit max q_j + 1 or a negative code: no state.
        # The needles are laid out class by class, so each row is sorted
        # when the states are (as enumerate_states gives them), which keeps
        # the search local; the result is stored state by state.
        self.up = np.ascontiguousarray(find(codes + stride[:, None]).T)
        self.down = np.ascontiguousarray(find(codes - stride[:, None]).T)
        if (self.down[occ > 0] < 0).any():
            raise ModelError("state space is not closed under departures")
        self.admissible = self.up >= 0

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
    """Enumerate the state set the admission policy defines.

    The states are all q with q_j <= t_j (thresholds) or sum_j q_j b_j <= C
    (full sharing), a coordinate-convex set whose membership gives the
    admission of each class (see :class:`StateSpace`).  They are built class
    by class as integer rows: each partial row for classes 0..j-1 is repeated
    once for every count class j can still take (``(C - used) // b_j + 1`` or
    ``t_j + 1``), which keeps the rows in lexicographic order.  Raises :class:`StateSpaceSizeError` when
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
    return StateSpace(occ)


def verify_consistency(space: StateSpace) -> bool:
    """True iff the admission mask matches membership of q + e_j for every
    state q and class j.

    Every :class:`StateSpace` derives its mask from that membership, so this
    holds by construction.
    """
    return bool(np.array_equal(space.admissible, space.up >= 0))


def sparse_generator(
    space: StateSpace, classes: Sequence[TrafficClass]
) -> scipy.sparse.csr_matrix:
    """Continuous-time generator in CSR form: arrivals at rate lam into the
    successor q + e_j wherever it is a state (the class is admitted there),
    departures at rate mu * q_j, diagonal = -row sum."""
    classes = tuple(classes)
    n = len(space)
    lam = np.array([c.lam for c in classes])
    mu = np.array([c.mu for c in classes])
    arrive = np.where(space.admissible, lam, 0.0)
    depart = mu * space.occupancy
    # the diagonal is accumulated class by class, arrival before departure:
    # this order keeps the diagonal's bits, and so every output, as before
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
        # log rho from the logs of the rates: lam / mu may under- or overflow
        logw = logw + qj * (math.log(c.lam) - math.log(c.mu)) - log_factorial[qj]
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
    states, with the average blocking-cost rate.

    The product form holds because every :class:`StateSpace` is closed under
    departures and admits exactly the arrivals that stay in the set.  Fails
    with :class:`ModelError` when sum_j lam_j omega_j, the largest
    blocking-cost rate r(q) can reach, is not finite.
    """
    classes = tuple(classes)
    if len(classes) != space.K:
        raise ModelError(f"{len(classes)} classes for K={space.K} space")
    if not math.isfinite(sum(c.lam * c.omega for c in classes)):
        raise ModelError("total blocking-cost rate sum_j lam_j omega_j is not finite")

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
