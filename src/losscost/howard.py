"""Relative costs, shadow prices, and per-connection bill distributions.

The relative cost v(q) measures the expected excess future blocking cost of
starting the system in state q instead of in steady state.  It solves the
policy-evaluation (Howard) equation

    sum_{j admitted} lam_j (v(q+e_j) - v(q))
      - sum_j mu_j q_j (v(q) - v(q-e_j))  =  g - r(q)

where g is the average cost rate and r(q) the per-state blocking-cost rate.
The solution is unique up to an additive constant; everything here anchors
v(empty) = 0, which leaves the shadow prices p_k(q) = v(q+e_k) - v(q)
unchanged.

The exact solve factors the sparse (CSR/CSC) generator with SuperLU, one
equation replaced at the most likely state, so no n x n matrix is formed.
Besides it this module has the closed form for the symmetric
single-service-rate case, two cheap closed-form approximations for
asymmetric systems, and an iterative series completion that tries to refine
any starting approximation by per-class quasi-inversion of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .model import (
    DEFAULT_STATE_CAP,
    ModelError,
    NumericsError,
    StateSpace,
    StateSpaceSizeError,
    TrafficClass,
    _log_weights,
    sparse_generator,
)
from .report import write_bill_distribution, write_relative_costs, write_shadow_prices

__all__ = [
    "RelativeCosts",
    "ShadowPriceTable",
    "BillDistribution",
    "SeriesResult",
    "solve_howard_exact",
    "howard_residual",
    "relative_cost_symmetric",
    "symmetric_relative_costs",
    "relative_cost_equal_bandwidth_approx",
    "relative_cost_general_approx",
    "equal_bandwidth_relative_costs",
    "general_relative_costs",
    "series_refine",
    "shadow_prices",
    "bill_distribution",
    "write_relative_costs",
    "write_shadow_prices",
    "write_bill_distribution",
]

RESIDUAL_TOL = 1e-8
# largest estimated 1-norm condition number of the anchored exact system
COND_LIMIT = 1e12
# prices within this distance share an atom of a bill law
BILL_MERGE_TOL = 1e-12
SERIES_CONVERGED_TOL = 1e-6
SERIES_STALL_TOL = 1e-10
# most cells in the series completion's box plus its per-class matrices; the
# 585,276-state K=3 model at the default 6 terms needs 159^3 + 3 * 159^2,
# about 4.1M
SERIES_BOX_CAP = 8 * DEFAULT_STATE_CAP


@dataclass(frozen=True)
class RelativeCosts:
    """Relative cost per state, anchored to zero at ``anchor``."""

    v: np.ndarray
    g: float
    anchor: int
    residual: float


@dataclass(frozen=True)
class ShadowPriceTable:
    """Price per (state, class) pair with q + e_k inside the state space.

    ``p[i, k]`` is v(q_i + e_k) - v(q_i); NaN where class k cannot be
    admitted in state i.  Differences of v, so independent of the anchor.
    """

    p: np.ndarray


@dataclass(frozen=True)
class BillDistribution:
    """Per class: discrete law of the price charged to an admitted arrival.

    An arriving call samples the stationary state it finds (PASTA), so the
    price p_k(q) is charged with probability pi(q) over the states that admit
    class k, renormalized.  ``per_class[k]`` is a tuple of (price,
    probability) pairs sorted by price, prices within ``BILL_MERGE_TOL`` of
    an atom's first price collapsed into it; empty for a class that no state
    admits, whose mean is NaN.
    """

    per_class: tuple[tuple[tuple[float, float], ...], ...]

    def mean(self, k: int) -> float:
        return sum(p * w for p, w in self.per_class[k]) if self.per_class[k] else math.nan


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of the series completion.

    ``residual_history[0]`` is the residual of the starting approximation and
    entry n the residual after n correction terms.  ``converged`` means the
    final residual met the convergence tolerance; ``diverged`` means the
    residual grew three terms in a row and the best iterate was returned;
    ``monotone`` records whether the history was non-increasing.
    """

    costs: RelativeCosts
    residual_history: tuple[float, ...]
    converged: bool
    diverged: bool
    monotone: bool
    message: str


def howard_residual(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    v: np.ndarray,
    g: float,
    r: np.ndarray,
) -> float:
    """Max-norm residual of the policy-evaluation equation for v."""
    return _residual(sparse_generator(space, classes), v, g, r)


def _residual(Q: scipy.sparse.csr_matrix, v: np.ndarray, g: float, r: np.ndarray) -> float:
    return float(np.max(np.abs(Q @ v - (g - r))))


def solve_howard_exact(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    g: float,
    r: np.ndarray,
    anchor: int = 0,
) -> RelativeCosts:
    """Solve the policy-evaluation equation by a sparse LU factorization.

    The generator is singular (constants are in its null space), so the
    equation of the most likely state q* is replaced by v(q*) = 0.  The
    dropped equation is the pi-weighted sum of all the others, so its
    residual is theirs scaled by up to 1/pi(q*); at q* that factor is at most
    the state count, while at the empty state of a heavily loaded link it
    is 1/pi(empty), about 1e13 for three classes at rho_k = 10 on 40 units.
    The anchored CSC matrix is factored with SuperLU
    (``scipy.sparse.linalg.splu``) and the solution shifted so that
    v(``anchor``) = 0, which leaves every shadow price unchanged.  Fails with
    :class:`NumericsError` when the anchored system's estimated condition
    number exceeds ``COND_LIMIT`` or the residual misses ``RESIDUAL_TOL``.
    """
    Q = sparse_generator(space, classes)
    n = len(space)
    r = np.asarray(r, dtype=float)
    pivot = int(np.argmax(_log_weights(space, classes)))
    coo = Q.tocoo()
    keep = coo.row != pivot
    A = scipy.sparse.csc_matrix(
        (
            np.append(coo.data[keep], 1.0),
            (np.append(coo.row[keep], pivot), np.append(coo.col[keep], pivot)),
        ),
        shape=(n, n),
    )
    rhs = g - r
    rhs[pivot] = 0.0

    # the generator is structurally symmetric; minimum degree on A^T + A
    # gives about half the fill of the default column ordering
    lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    if n > 1:
        inv_op = LinearOperator(
            (n, n),
            matvec=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="T"),
            dtype=float,
        )
        cond_est = onenormest(inv_op) * scipy.sparse.linalg.norm(A, 1)
        if cond_est > COND_LIMIT:
            raise NumericsError(
                f"anchored system too ill-conditioned: estimate {cond_est:.3e} "
                f"exceeds limit {COND_LIMIT:.1e}"
            )
    v = lu.solve(rhs)
    v -= v[anchor]

    residual = _residual(Q, v, g, r)
    if residual > RESIDUAL_TOL:
        raise NumericsError(
            f"relative-cost solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return RelativeCosts(v=v, g=g, anchor=anchor, residual=residual)


def _total_tables(n: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    # Over total call counts t = 0..n: the load increment E(t) = S(t-1)/rho
    # and the double sum
    #   D(t) = sum_{i=1}^{t} sum_{m=0}^{t-i} (t-i)!/(t-i-m)! * rho^-m
    #        = S(0) + ... + S(t-1)
    # from one pass of the inner-sum recursion S(p) = 1 + p/rho * S(p-1),
    # S(0) = 1.  rho is only divided by when some state holds a call.
    S = np.empty(n)
    s = 1.0
    for p in range(n):
        if p > 0:
            s = 1.0 + p * (1.0 / rho) * s
        S[p] = s
    E = np.concatenate([[0.0], S / rho])
    D = np.concatenate([[0.0], np.cumsum(S)])
    return E, D


def relative_cost_symmetric(q: int, g: float, mu: float, rho: float) -> float:
    """Closed-form relative cost when every class shares one bandwidth and
    one service rate under full sharing; depends only on the total number of
    calls q.  rho is the total offered load sum_k lam_k / mu_k.  The value
    :func:`symmetric_relative_costs` gives every state with q calls."""
    if q < 0:
        raise ValueError(f"call count must be >= 0, got {q}")
    if rho == 0.0:
        return 0.0
    return float(g / (mu * rho) * _total_tables(q, rho)[1][q])


def _require_equal(values, what: str) -> float:
    first = values[0]
    if any(v != first for v in values[1:]):
        raise ModelError(f"closed form requires equal {what} across classes, got {values}")
    return first


def symmetric_relative_costs(
    space: StateSpace, classes: Sequence[TrafficClass], g: float
) -> RelativeCosts:
    """Closed-form relative costs over a symmetric full-sharing space."""
    classes = tuple(classes)
    mu = _require_equal([c.mu for c in classes], "service rates")
    _require_equal([c.bandwidth for c in classes], "bandwidths")
    rho = sum(c.rho for c in classes)
    if rho == 0.0:
        return RelativeCosts(v=np.zeros(len(space)), g=g, anchor=0, residual=math.nan)
    totals = space.occupancy.sum(axis=1)
    _, D = _total_tables(int(totals.max()), rho)
    v = g / (mu * rho) * D[totals]
    return RelativeCosts(v=v, g=g, anchor=0, residual=math.nan)


# The two approximations, each one kernel over an occupancy array (one row
# per state): the whole-space functions pass the state space's occupancy,
# the per-state functions a one-row array.  Per-class terms are added in
# class order.


def _equal_bandwidth_v(occupancy: np.ndarray, classes: tuple[TrafficClass, ...], g: float) -> np.ndarray:
    _require_equal([c.bandwidth for c in classes], "bandwidths")
    totals = occupancy.sum(axis=1)
    rho = sum(c.rho for c in classes)
    v = np.zeros(len(occupancy))
    if rho == 0.0:
        return v
    _, D = _total_tables(int(totals.max()), rho)
    for qj, c in zip(occupancy.T, classes):
        v += np.where(qj > 0, (qj / np.maximum(totals, 1)) * g / (c.mu * rho) * D[totals], 0.0)
    return v


def _general_v(occupancy: np.ndarray, classes: tuple[TrafficClass, ...], g: float) -> np.ndarray:
    c = occupancy @ np.array([cl.bandwidth for cl in classes])
    v = np.zeros(len(occupancy))
    b = sum(cl.bandwidth for cl in classes)
    rho = sum(cl.rho * (cl.bandwidth / b) ** 2 for cl in classes)
    if rho == 0.0:
        return v
    for qj, cl in zip(occupancy.T, classes):
        # standard floor; keeps the reduction to the symmetric form exact at
        # integer capacity ratios
        level = c // cl.bandwidth
        _, D = _total_tables(int(level.max()), (b / cl.bandwidth) ** 2 * rho)
        share = (cl.bandwidth * qj / np.maximum(c, 1)) * (cl.bandwidth / b) ** 2 * g / (cl.mu * rho)
        v += np.where(qj > 0, share * D[level], 0.0)
    return v


def relative_cost_equal_bandwidth_approx(
    q: Sequence[int], classes: Sequence[TrafficClass], g: float
) -> float:
    """Occupancy-weighted closed-form approximation for equal bandwidths but
    class-dependent service rates.  Defined as 0 at the empty state.  The
    value :func:`equal_bandwidth_relative_costs` gives state q."""
    return float(_equal_bandwidth_v(np.array([q]), tuple(classes), g)[0])


def relative_cost_general_approx(
    q: Sequence[int], classes: Sequence[TrafficClass], g: float
) -> float:
    """Bandwidth-scaled approximation for fully heterogeneous classes.

    Maps the occupied capacity c onto each class's own scale c // b_j and
    evaluates the symmetric closed form there with a bandwidth-weighted load.
    No accuracy guarantee; pair it with :func:`howard_residual` to see how
    good it is on a given instance.  The value :func:`general_relative_costs`
    gives state q.
    """
    return float(_general_v(np.array([q]), tuple(classes), g)[0])


def equal_bandwidth_relative_costs(
    space: StateSpace, classes: Sequence[TrafficClass], g: float
) -> RelativeCosts:
    """:func:`relative_cost_equal_bandwidth_approx` over every state."""
    v = _equal_bandwidth_v(space.occupancy, tuple(classes), g)
    return RelativeCosts(v=v, g=g, anchor=0, residual=math.nan)


def general_relative_costs(
    space: StateSpace, classes: Sequence[TrafficClass], g: float
) -> RelativeCosts:
    """:func:`relative_cost_general_approx` over every state."""
    v = _general_v(space.occupancy, tuple(classes), g)
    return RelativeCosts(v=v, g=g, anchor=0, residual=math.nan)


def _delta_k(a: np.ndarray, k: int, lam: float, mu: float) -> np.ndarray:
    # one-class generator without admission control along axis k; valid one
    # layer inside the box
    up = np.roll(a, -1, axis=k)
    dn = np.roll(a, 1, axis=k)
    qk = np.arange(a.shape[k]).reshape([-1 if ax == k else 1 for ax in range(a.ndim)])
    out = lam * (up - a) - mu * qk * (a - dn)
    # roll wrapped the edges; zero the top layer where up is meaningless
    idx = [slice(None)] * a.ndim
    idx[k] = -1
    out[tuple(idx)] = 0.0
    return out


def _quasi_inverse(n: int, rho: float) -> np.ndarray:
    """Strictly lower-triangular matrix of the one-class quasi-inverse on
    levels 0..n-1.

    H[q, m] = rho^-1 sum_{j=0}^{q-m-1} (m+j)!/m! rho^-j for m < q, so that
    the one-class generator maps (1/mu) H f back to f below the top level.
    Row q adds to row q-1 the term T(q, m) = (q-1)!/m! rho^-(q-1-m), carried
    from T(q-1, m) by one factor (q-1)/rho.
    """
    H = np.zeros((n, n))
    T = np.zeros(n)
    for q in range(1, n):
        T[:q - 1] *= (q - 1) / rho
        T[q - 1] = 1.0
        H[q] = H[q - 1] + T
    return H / rho


def _apply_along(M: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """M applied to every line of ``a`` along axis k."""
    return np.moveaxis(np.tensordot(M, a, axes=(1, k)), 0, k)


def series_refine(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    g: float,
    r: np.ndarray,
    u: Callable[[tuple[int, ...]], float] | None = None,
    n_terms: int = 6,
) -> SeriesResult:
    """Complete a starting approximation by per-class correction terms.

    The start is g u, with u a callable of the occupancy tuple; when ``u``
    is None it is the symmetric-shaped u(q) = D(total q) / (rho sum_j mu_j),
    D the double sum of the symmetric closed form and rho the total load.
    The first correction seed splits the unit cost-rate identity across
    classes, f1_j = c_j - D_j u with c_j(q) = rho_j E(q+1) - q_j E(q) (the
    shares c_j sum to one), and each further seed pushes the cross-class
    coupling one order higher:

        f_{n+1,j} = - sum_{k != j} D_k [ (1/mu_j) h(f_{n,j}; q_j, rho_j) ]

    where h is the exact one-class inverse of D_j, one lower-triangular
    matrix per class applied along that class's axis.  All operators act on
    an enlarged box around the admitted region (levels 0..max q_j + n_terms
    + 2 per axis) so that no admission boundary is seen by the recursion; the
    residual is always measured with the admission boundary in force.
    Raises :class:`StateSpaceSizeError` when the box and the matrices would
    hold more than ``SERIES_BOX_CAP`` cells, before allocating them.

    The corrections drive the residual of the *unconstrained* balance
    equation to zero, but on blocking instances the completed function can
    settle on a solution whose boundary increments disagree with the blocking
    costs, so the policy-equation residual may stall above the convergence
    tolerance.  That outcome is reported honestly via the flags instead of
    being iterated forever; use :func:`solve_howard_exact` when an exact
    answer is required.
    """
    classes = tuple(classes)
    K = space.K
    if n_terms < 0:
        raise ModelError(f"n_terms must be >= 0, got {n_terms}")
    if any(c.lam == 0.0 for c in classes):
        # the per-class quasi-inverse weights carry inverse powers of the
        # per-class load
        raise ModelError("series completion requires a positive arrival rate per class")
    shape = tuple(int(m) + n_terms + 3 for m in space.occupancy.max(axis=0))
    cells = math.prod(shape) + sum(n * n for n in shape)
    if cells > SERIES_BOX_CAP:
        raise StateSpaceSizeError(
            f"series box and quasi-inverse matrices of {cells} cells for {n_terms} terms "
            f"exceed the cap of {SERIES_BOX_CAP}"
        )
    rho = sum(c.rho for c in classes)
    Q = sparse_generator(space, classes)

    grid = np.indices(shape)
    totals = grid.sum(axis=0)
    # E(t) is the load increment; its shares c_j(q) sum to one over j
    E, D = _total_tables(int(totals.max()) + 1, rho)
    if u is None:
        ubox = D[totals] / (rho * sum(c.mu for c in classes))
    else:
        ubox = np.fromiter(map(u, np.ndindex(*shape)), dtype=float).reshape(shape)
    f = [c.rho * E[totals + 1] - grid[j] * E[totals] - _delta_k(ubox, j, c.lam, c.mu)
         for j, c in enumerate(classes)]
    H = [_quasi_inverse(n, c.rho) for n, c in zip(shape, classes)]

    occupied = tuple(space.occupancy.T)

    def measure(vbox: np.ndarray) -> tuple[np.ndarray, float]:
        v = vbox[occupied]
        v = v - v[0]
        return v, _residual(Q, v, g, r)

    vbox = g * ubox
    v0, res0 = measure(vbox)
    history = [res0]
    best_v, best_res, best_terms = v0, res0, 0

    diverged = False
    message = ""
    grow_streak = 0
    for n in range(1, n_terms + 1):
        hs = [_apply_along(H[j], f[j], j) / classes[j].mu for j in range(K)]
        for h in hs:
            vbox += g * h
        v, res = measure(vbox)
        history.append(res)
        if res < best_res:
            best_v, best_res, best_terms = v, res, n
        grow_streak = grow_streak + 1 if res > history[-2] else 0
        if grow_streak >= 3:
            diverged = True
            message = f"residual grew for {grow_streak} consecutive terms; returning best iterate (after {best_terms} terms)"
            break
        if res <= SERIES_CONVERGED_TOL:
            message = f"converged after {n} terms"
            break
        if abs(history[-2] - res) < SERIES_STALL_TOL:
            message = f"residual improvement below {SERIES_STALL_TOL:g} after {n} terms; stopping"
            break
        if n == n_terms:
            break
        f = [-sum((_delta_k(hs[j], k, classes[k].lam, classes[k].mu) for k in range(K) if k != j),
                  np.zeros(shape)) for j in range(K)]

    converged = best_res <= SERIES_CONVERGED_TOL
    if not message:
        message = f"stopped after {len(history) - 1} terms without reaching {SERIES_CONVERGED_TOL:g}"
    monotone = all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    costs = RelativeCosts(v=best_v, g=g, anchor=0, residual=best_res)
    return SeriesResult(
        costs=costs,
        residual_history=tuple(history),
        converged=converged,
        diverged=diverged,
        monotone=monotone,
        message=message,
    )


def shadow_prices(costs: RelativeCosts | np.ndarray, space: StateSpace) -> ShadowPriceTable:
    """Price table p_k(q) = v(q+e_k) - v(q) over pairs with q+e_k admitted."""
    v = costs.v if isinstance(costs, RelativeCosts) else np.asarray(costs, dtype=float)
    p = np.where(space.up >= 0, v[space.up] - v[:, None], np.nan)
    return ShadowPriceTable(p=p)


def _merge_atoms(prices: np.ndarray, weights: np.ndarray,
                 merge_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(price, weight) atoms of ascending ``prices``: a price within
    ``merge_tol`` of the current atom's first price adds its weight to that
    atom, weights summed left to right.

    A gap wider than ``merge_tol`` between neighbours always starts an atom,
    and a run between such gaps that spans at most ``merge_tol`` is one
    atom; only a wider run is scanned price by price.
    """
    n = len(prices)
    cut = np.flatnonzero(~(np.diff(prices) <= merge_tol)) + 1
    start = np.concatenate(([0], cut))
    length = np.diff(np.concatenate((start, [n])))
    price, weight = prices[start], _run_sums(weights, start, length)
    wide = np.flatnonzero(~(prices[start + length - 1] - price <= merge_tol))
    if len(wide) == 0:
        return price, weight
    price_parts, weight_parts, done = [], [], 0
    for r in wide.tolist():
        atoms: list[list] = []
        for p, w in zip(prices[start[r]:start[r] + length[r]].tolist(),
                        weights[start[r]:start[r] + length[r]].tolist()):
            if atoms and p - atoms[-1][0] <= merge_tol:
                atoms[-1][1] += w
            else:
                atoms.append([p, w])
        scanned_price, scanned_weight = zip(*atoms)
        price_parts += [price[done:r], np.array(scanned_price)]
        weight_parts += [weight[done:r], np.array(scanned_weight, dtype=weight.dtype)]
        done = r + 1
    return (np.concatenate(price_parts + [price[done:]]),
            np.concatenate(weight_parts + [weight[done:]]))


def _run_sums(values: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Sum of ``values[start[r]:start[r] + length[r]]`` for every run r,
    added left to right as a loop would: runs of 2**(b-1) < length <= 2**b
    elements are the columns of one padded block, summed by ``np.cumsum``
    down the columns (an accumulation is sequential; ``np.add.reduceat`` is
    pairwise and rounds differently)."""
    sums = values[start]
    bits = np.frexp(np.maximum(length - 1, 0))[1]
    for b in np.unique(bits[bits > 0]).tolist():
        runs = np.flatnonzero(bits == b)
        rows = np.minimum(start[runs] + np.arange(1 << b)[:, None], len(values) - 1)
        sums[runs] = np.cumsum(values[rows], axis=0)[length[runs] - 1, np.arange(len(runs))]
    return sums


def bill_distribution(prices: ShadowPriceTable, pi: np.ndarray, space: StateSpace) -> BillDistribution:
    """Law of the shadow price charged to an admitted arrival of each class;
    the empty law for a class that no state admits."""
    per_class = []
    for k in range(space.K):
        mask = space.admissible[:, k]
        if not mask.any():
            per_class.append(())
            continue
        weight = pi[mask]
        total = weight.sum()
        if total <= 0:
            raise ModelError(f"class {k + 1} admitting states carry zero probability")
        pk = prices.p[mask, k]
        order = np.argsort(pk)
        price, mass = _merge_atoms(pk[order], weight[order] / total, BILL_MERGE_TOL)
        per_class.append(tuple(zip(price.tolist(), mass.tolist())))
    return BillDistribution(per_class=tuple(per_class))

