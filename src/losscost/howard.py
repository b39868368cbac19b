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

The exact solve works on the sparse (CSR) generator with one equation
replaced at the most likely state, so no n x n matrix is formed.  One
BiCGSTAB driver, which restarts from the true residual when it stalls, runs
with A's inverse diagonal (Jacobi) as preconditioner and, on the systems
where that iteration breaks down, runs out of steps or stalls past its
restarts, once more with a SuperLU factorization.  Both gate the v they
would return on the residual a backward-stable solve reaches at the data's
scale; the solve also reports the anchored system's exact 1-norm condition
number, which must stay under ``COND_LIMIT``.  Besides it this module has
the closed form for the symmetric single-service-rate case, two cheap
closed-form approximations for asymmetric systems, and a series completion
that refines any starting approximation term by term, each term one exact
solve per class along that class's lines of the anchored system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from .model import (
    ModelError,
    NumericsError,
    StateSpace,
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

# largest 1-norm condition number of the anchored exact system
COND_LIMIT = 1e12
# both attempts of the exact solve accept v once ||Q v - (g - r)||_inf is
# at most this multiple of ||Q||_inf ||v||_inf + ||g - r||_inf (18 units of
# roundoff); SuperLU reaches 1e-17 to 1e-15 on the same systems
BACKWARD_TOL = 4e-15
# BiCGSTAB steps per attempt of the exact solve; 39,711 and 46,376 states
# take about 150 under Jacobi
BICGSTAB_MAX_ITER = 300
# BiCGSTAB has stalled once its updated residual is this far below the
# true one: it restarts from the true residual, or stops when the last
# restart did not lower it
STALL_GAP = 1e-2
# most states SuperLU may factor; K=4 took 0.25 GB at 17,550 and 1.9 GB at 46,376
SUPERLU_STATE_CAP = 20_000
# max-norm residual of the transposed solve for the condition number; as
# ||A^-T||_inf = ||A^-1||_1, it is also the solve's relative error bound
COND_SOLVE_TOL = 1e-6
# prices within this distance share an atom of a bill law
BILL_MERGE_TOL = 1e-12
SERIES_CONVERGED_TOL = 1e-6
SERIES_STALL_TOL = 1e-10
# correction terms of a series completion when none are asked for
SERIES_TERMS = 6


@dataclass(frozen=True)
class RelativeCosts:
    """Relative cost per state, anchored to zero at ``anchor``.

    ``residual`` is the max-norm Howard residual of ``v``.  The exact solve
    also reports how it answered: ``solver`` is ``"bicgstab"``
    (Jacobi-preconditioned) or ``"superlu"`` (preconditioned by SuperLU
    factors), ``iterations`` the BiCGSTAB steps of the attempt that
    answered, restarts included (1 on most SuperLU-preconditioned answers:
    the direct solve and one refinement), ``condition`` the 1-norm
    condition number of the anchored system and ``tolerance`` the gate
    ``residual`` met.  A closed form or series leaves them at None, 0, NaN
    and NaN.
    """

    v: np.ndarray
    anchor: int
    residual: float
    solver: str | None = None
    iterations: int = 0
    condition: float = math.nan
    tolerance: float = math.nan


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
    entry n the residual after n correction terms.  ``costs`` is the iterate
    of least residual, and ``converged`` means that residual met the
    convergence tolerance.  ``message`` says why the terms stopped: the
    tolerance was met, the residual stalled, it grew three terms in a row,
    or the term budget ran out.
    """

    costs: RelativeCosts
    residual_history: tuple[float, ...]
    converged: bool
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


def _anchored_system(
    space: StateSpace, classes: Sequence[TrafficClass], g: float, r: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix, np.ndarray, int]:
    """(Q, A, rhs, pivot): the generator and the anchored system A x = rhs,
    Howard's equation with the row of the most likely state q* = argmax pi
    (index ``pivot``) replaced by v(q*) = 0, so rhs = g - r with
    rhs[pivot] = 0."""
    Q = sparse_generator(space, classes)
    pivot = int(np.argmax(_log_weights(space, classes)))
    # sparse_generator stores every diagonal entry, so the pivot's row keeps
    # its slot for the 1
    A = Q.copy()
    row = slice(A.indptr[pivot], A.indptr[pivot + 1])
    A.data[row] = np.where(A.indices[row] == pivot, 1.0, 0.0)
    rhs = g - np.asarray(r, dtype=float)
    rhs[pivot] = 0.0
    return Q, A, rhs, pivot


def solve_howard_exact(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    g: float,
    r: np.ndarray,
    anchor: int = 0,
) -> RelativeCosts:
    """Solve the policy-evaluation equation exactly, up to rounding.

    The generator is singular (constants are in its null space), so the
    equation of the most likely state q* is replaced by v(q*) = 0.  The
    dropped equation is the pi-weighted sum of all the others, so its
    residual is theirs scaled by up to 1/pi(q*); at q* that factor is at most
    the state count, while at the empty state of a heavily loaded link it
    is 1/pi(empty), about 1e13 for three classes at rho_k = 10 on 40 units.

    The anchored sparse system is solved from zero by :func:`_bicgstab`, at
    most twice.  Both attempts measure the Howard residual, the dropped
    equation included, of the solution shifted so that v(``anchor``) = 0,
    the v this returns; the shift leaves every shadow price unchanged.  Both
    stop once it is at most ``BACKWARD_TOL`` (||Q|| ||x|| + ||g - r||), max
    norms, x the iterate anchored at q*: the residual a backward-stable
    solve reaches (Higham 2002, ch. 7), which follows a change of time unit.
    The first attempt is preconditioned by A's inverse diagonal (Jacobi).
    When it breaks down, stalls past its restarts or runs
    ``BICGSTAB_MAX_ITER`` steps without meeting that gate, the second is
    preconditioned by SuperLU factors of A: its first step is the direct
    solve, further steps refine it.  ``RelativeCosts.solver`` says which
    attempt answered and ``RelativeCosts.tolerance`` the gate it met.

    The 1-norm condition number is exact, not estimated: with the sign of
    every row but the pivot's flipped, the anchored matrix A is a nonsingular
    M-matrix, whose inverse is entrywise >= 0, so ||A^-1||_1 = ||A^-T 1||_inf,
    one transposed solve per attempt, with its preconditioner, to a max-norm
    residual of ``COND_SOLVE_TOL``, which bounds its relative error.  Fails
    with :class:`ModelError` unless 0 <= ``anchor`` < the state count, and
    with :class:`NumericsError`, saying how BiCGSTAB stopped, when SuperLU
    would factor more than ``SUPERLU_STATE_CAP`` states, when the condition
    number exceeds ``COND_LIMIT`` or when neither attempt meets the gate,
    saying how each stopped.
    """
    n = len(space)
    if not 0 <= anchor < n:
        raise ModelError(f"anchor must be a state index in [0, {n}), got {anchor}")
    Q, A, rhs, _ = _anchored_system(space, classes, g, r)
    r = np.asarray(r, dtype=float)
    norm_1 = float(np.bincount(A.indices, weights=np.abs(A.data), minlength=n).max())
    # ||Q||_inf: each row of a generator sums to zero
    scale_q, scale_rhs = 2.0 * np.abs(Q.diagonal()).max(), np.abs(g - r).max()

    def tol(x):
        return BACKWARD_TOL * (scale_q * np.abs(x).max() + scale_rhs)

    def shifted(x):
        # + 0.0 turns the -0.0 of a shifted zero into +0.0; no other value moves
        return x - x[anchor] + 0.0

    At, stops = A.T, []
    precondition = precondition_t = _jacobi(A)
    for solver in ("bicgstab", "superlu"):
        if solver == "superlu":
            if n > SUPERLU_STATE_CAP:
                raise NumericsError(f"BiCGSTAB {stops[0]}, and SuperLU factors at most "
                                    f"{SUPERLU_STATE_CAP} states, not {n}")
            lu = _superlu(A)
            precondition, precondition_t = lu.solve, lambda b: lu.solve(b, trans="T")
        y, _, stop = _bicgstab(At.__matmul__, np.ones(n), precondition_t, lambda y: COND_SOLVE_TOL)
        if y is None:
            stops.append(f"{stop} on the transposed system")
            continue
        condition = norm_1 * float(np.abs(y).max())
        if condition > COND_LIMIT:
            raise NumericsError(f"anchored system too ill-conditioned: condition number {condition:.3e} "
                                f"exceeds limit {COND_LIMIT:.1e}")
        x, iterations, stop = _bicgstab(A.__matmul__, rhs, precondition, tol,
                                        lambda x: _residual(Q, shifted(x), g, r))
        if x is not None:
            break
        stops.append(stop)
    else:
        raise NumericsError(f"relative-cost solve residual misses {BACKWARD_TOL:.1e} x ({scale_q:.3e} ||v|| "
                            f"+ {scale_rhs:.3e}): BiCGSTAB {stops[0]}; SuperLU-preconditioned, {stops[1]}")
    v = shifted(x)
    return RelativeCosts(v=v, anchor=anchor, residual=_residual(Q, v, g, r), solver=solver,
                         iterations=iterations, condition=condition, tolerance=tol(x))


def _jacobi(A: scipy.sparse.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """Jacobi preconditioner: multiplication by the inverse diagonal of A,
    which is also A^T's."""
    with np.errstate(divide="ignore"):
        dinv = 1.0 / A.diagonal()
    return lambda b: dinv * b


def _superlu(A: scipy.sparse.csr_matrix):
    """SuperLU factors of A."""
    from scipy.sparse.linalg import splu

    # the generator is structurally symmetric; minimum degree on A^T + A
    # gives about half the fill of the default column ordering
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _bicgstab(matvec, b: np.ndarray, precondition, tol, measure=None) -> tuple[np.ndarray | None, int, str]:
    """Preconditioned BiCGSTAB (van der Vorst 1992) for A x = b from x = 0;
    ``matvec`` applies A and ``precondition`` an approximate inverse of A.

    ``measure(x)`` is the max-norm residual that must meet ``tol(x)``; by
    default the true residual's, ||b - A x||_inf.  Both are formed only once
    the recursively updated residual meets ``tol(x)``.  When the updated
    residual has fallen ``STALL_GAP`` times below the true one, rounding,
    not the Krylov space, bounds further progress: the iteration restarts
    from the true residual with it as the new shadow vector, as long as
    each restart lowers the true residual.  Returns (x, steps, how it
    stopped) at the first x that meets it, and x = None on a breakdown (a
    zero scalar or a non-finite residual), on a stall after a restart that
    did not lower the true residual, or after ``BICGSTAB_MAX_ITER`` steps,
    restarts included.
    """
    x = np.zeros_like(b)
    r, r0 = b.copy(), b
    p = v = x
    rho = alpha = omega = 1.0
    # the true residual at the last restart
    last = math.inf
    with np.errstate(all="ignore"):
        for step in range(BICGSTAB_MAX_ITER + 1):
            if step:
                rho, rho_prev = r0 @ r, rho
                if rho == 0.0:
                    return None, step, f"broke down at step {step}"
                p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
                p_hat = precondition(p)
                v = matvec(p_hat)
                alpha = rho / (r0 @ v)
                s = r - alpha * v
                s_hat = precondition(s)
                t = matvec(s_hat)
                tt = t @ t
                omega = (t @ s) / tt if tt > 0.0 else 0.0
                x = x + alpha * p_hat + omega * s_hat
                r = s - omega * t
            r_norm, bound = np.abs(r).max(), tol(x)
            if not math.isfinite(r_norm):
                return None, step, f"broke down at step {step}"
            if r_norm <= bound:
                true = b - matvec(x)
                true_norm = np.abs(true).max()
                if (true_norm if measure is None else measure(x)) <= bound:
                    return x, step, f"converged at step {step}"
                if r_norm < STALL_GAP * true_norm:
                    if true_norm >= last:
                        return None, step, f"stalled at step {step}: residual {true_norm:.3g}, updated {r_norm:.3g}"
                    last = true_norm
                    r = r0 = true
                    p = v = np.zeros_like(b)
                    rho = alpha = omega = 1.0
            if step and omega == 0.0:
                return None, step, f"broke down at step {step}"
    return None, step, f"ran out of steps at step {step}: updated residual {r_norm:.3g} > {bound:.3g}"


def _total_tables(n: int, rho: float) -> np.ndarray:
    # Over total call counts t = 0..n, the double sum
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
    return np.concatenate([[0.0], np.cumsum(S)])


def _finite(v: np.ndarray) -> np.ndarray:
    """``v`` of a closed form, or a :class:`NumericsError` when 1/rho or a
    double sum overflowed; callers compute v under ``np.errstate`` so that
    the overflow reaches this check rather than a numpy warning."""
    if not np.isfinite(v).all():
        raise NumericsError("closed-form relative costs are not finite: the load is too small "
                            "or too large for the double sums")
    return v


def relative_cost_symmetric(q: int, g: float, mu: float, rho: float) -> float:
    """Closed-form relative cost when every class shares one bandwidth and
    one service rate under full sharing; depends only on the total number of
    calls q.  rho is the total offered load sum_k lam_k / mu_k.  The value
    :func:`symmetric_relative_costs` gives every state with q calls."""
    if q < 0:
        raise ValueError(f"call count must be >= 0, got {q}")
    if rho == 0.0:
        return 0.0
    with np.errstate(all="ignore"):
        return float(_finite(g / (mu * rho) * _total_tables(q, rho)[q]))


def _require_equal(values, what: str) -> float:
    first = values[0]
    if any(v != first for v in values[1:]):
        raise ModelError(f"closed form requires equal {what} across classes, got {values}")
    return first


def symmetric_relative_costs(
    space: StateSpace, classes: Sequence[TrafficClass], g: float
) -> RelativeCosts:
    """Closed-form relative costs over a symmetric full-sharing space; a
    :class:`ModelError` when the rates, the bandwidths or the sharing differ,
    a :class:`NumericsError` when the double sums overflow."""
    classes = tuple(classes)
    mu = _require_equal([c.mu for c in classes], "service rates")
    _require_equal([c.bandwidth for c in classes], "bandwidths")
    totals = space.occupancy.sum(axis=1)
    n_max, k = int(totals.max()), len(classes)
    # closed under departures, the space is {q : sum(q) <= n_max} iff it has
    # that simplex's number of states
    if len(space) != math.comb(n_max + k, k):
        raise ModelError(f"closed form requires complete sharing: {len(space)} states, "
                         f"not the {math.comb(n_max + k, k)} with at most {n_max} calls")
    rho = sum(c.rho for c in classes)
    if rho == 0.0:
        return RelativeCosts(v=np.zeros(len(space)), anchor=0, residual=math.nan)
    with np.errstate(all="ignore"):
        v = _finite(g / (mu * rho) * _total_tables(n_max, rho)[totals])
    return RelativeCosts(v=v, anchor=0, residual=math.nan)


# The one approximation kernel, over an occupancy array (one row per state):
# whole-space functions and the series start pass the state space's,
# per-state functions a one-row array.  At equal bandwidths it is the
# occupancy-weighted equal-bandwidth form.  Per-class terms are added in
# class order.


def _general_v(occupancy: np.ndarray, classes: tuple[TrafficClass, ...], g: float) -> np.ndarray:
    c = occupancy @ np.array([cl.bandwidth for cl in classes])
    v = np.zeros(len(occupancy))
    b = sum(cl.bandwidth for cl in classes)
    rho = sum(cl.rho * (cl.bandwidth / b) ** 2 for cl in classes)
    if rho == 0.0:
        return v
    with np.errstate(all="ignore"):
        for qj, cl in zip(occupancy.T, classes):
            # standard floor; keeps the reduction to the symmetric form exact
            # at integer capacity ratios
            level = c // cl.bandwidth
            D = _total_tables(int(level.max()), (b / cl.bandwidth) ** 2 * rho)
            share = (cl.bandwidth * qj / np.maximum(c, 1)) * (cl.bandwidth / b) ** 2 * g / (cl.mu * rho)
            v += np.where(qj > 0, share * D[level], 0.0)
    return _finite(v)


def relative_cost_equal_bandwidth_approx(
    q: Sequence[int], classes: Sequence[TrafficClass], g: float
) -> float:
    """Occupancy-weighted closed-form approximation for equal bandwidths but
    class-dependent service rates.  Defined as 0 at the empty state.  The
    value :func:`equal_bandwidth_relative_costs` gives state q; the general
    approximation, restricted to equal bandwidths."""
    _require_equal([c.bandwidth for c in classes], "bandwidths")
    return float(_general_v(np.array([q]), tuple(classes), g)[0])


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
    _require_equal([c.bandwidth for c in classes], "bandwidths")
    v = _general_v(space.occupancy, tuple(classes), g)
    return RelativeCosts(v=v, anchor=0, residual=math.nan)


def general_relative_costs(
    space: StateSpace, classes: Sequence[TrafficClass], g: float
) -> RelativeCosts:
    """:func:`relative_cost_general_approx` over every state."""
    v = _general_v(space.occupancy, tuple(classes), g)
    return RelativeCosts(v=v, anchor=0, residual=math.nan)


def _line_factors(space: StateSpace, A: scipy.sparse.csr_matrix) -> list[tuple[np.ndarray, tuple]]:
    """Per class k, the state order with q_k fastest and the LAPACK ``gttrf``
    factors of M_k: diag(A) plus A's couplings between class-k neighbours.

    Every other class count is fixed along a line of M_k, so M_k is
    tridiagonal in that order.  It is A with its off-class couplings dropped,
    a nonsingular M-matrix up to row signs.  Each system carries two
    identity rows at its end, since ``dgttrf`` refuses systems of at most
    two rows.
    """
    from scipy.linalg.lapack import dgttrf

    n, occ = len(space), space.occupancy
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    diag = A.diagonal()
    pad = np.zeros(2)
    factors = []
    for k in range(space.K):
        order = np.lexsort((occ[:, k], *np.delete(occ, k, axis=1).T))
        # q - e_k and q + e_k are the neighbours of q in this order when they
        # are states; a state without one couples to nothing there
        up, down = np.zeros(n), np.zeros(n)
        for coupling, neighbour in ((up, space.up[:, k]), (down, space.down[:, k])):
            hit = A.indices == neighbour[rows]
            coupling[rows[hit]] = A.data[hit]
        *lu, info = dgttrf(np.concatenate([down[order[1:]], pad]),
                           np.concatenate([diag[order], [1.0, 1.0]]),
                           np.concatenate([up[order[:-1]], pad]))
        if info != 0:
            raise NumericsError(f"class {k + 1} line system is singular (dgttrf info {info})")
        factors.append((order, tuple(lu)))
    return factors


def _line_solve(factor: tuple[np.ndarray, tuple], b: np.ndarray) -> np.ndarray:
    """M_k^-1 b for one class's factor from :func:`_line_factors`."""
    from scipy.linalg.lapack import dgttrs

    order, lu = factor
    y, _ = dgttrs(*lu, np.concatenate([b[order], np.zeros(2)]))
    x = np.empty_like(b)
    x[order] = y[:-2]
    return x


def series_refine(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    g: float,
    r: np.ndarray,
    u: Callable[[tuple[int, ...]], float] | None = None,
    n_terms: int = SERIES_TERMS,
) -> SeriesResult:
    """Complete a starting approximation by per-class correction terms.

    The start is g u, with u a callable of the occupancy tuple evaluated on
    every state; when ``u`` is None it is the general approximation at g = 1
    (:func:`relative_cost_general_approx`), exact on symmetric
    complete-sharing models.  A start that already meets the convergence
    tolerance is returned before any term is computed.

    The terms work on the anchored system A z = b of :func:`solve_howard_exact`.
    Fixing every class count but class k's turns the generator into
    birth-death lines along class k; M_k, diag(A) plus A's class-k couplings,
    is tridiagonal with q_k fastest and is factored once per call.  One term
    is one symmetric block Gauss-Seidel sweep over the class axes (Stewart,
    *Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 3):
    for the classes in order, then in reverse,

        z <- z + M_k^-1 (b - A z),

    each class's exact one-class solve with the admission boundary and every
    other class's counts held.  With one class M_1 = A and the first term is
    the exact solution.  The residual of every iterate is measured on
    v = z - z(empty) with Howard's equation in full.

    The terms are an approximation ladder, not a solver: on some blocking
    instances the residual rises after the first terms while v still moves
    toward the exact solution.  The iterate of least residual is returned,
    and ``converged`` and ``message`` say how the terms ended; use
    :func:`solve_howard_exact` when an exact answer is required.
    """
    classes = tuple(classes)
    if n_terms < 0:
        raise ModelError(f"n_terms must be >= 0, got {n_terms}")
    Q, A, b, pivot = _anchored_system(space, classes, g, r)
    if u is None:
        z = g * _general_v(space.occupancy, classes, 1.0)
    else:
        z = g * np.fromiter(map(u, space.states), dtype=float, count=len(space))

    def measure(z: np.ndarray) -> tuple[np.ndarray, float]:
        v = z - z[0]
        return v, _residual(Q, v, g, r)

    v0, res0 = measure(z)
    if res0 <= SERIES_CONVERGED_TOL:
        return SeriesResult(RelativeCosts(v=v0, anchor=0, residual=res0), (res0,), True,
                            "converged after 0 terms")
    history = [res0]
    best_v, best_res, best_terms = v0, res0, 0
    factors = _line_factors(space, A)
    sweep = factors + factors[::-1]
    # the anchored system's solution is zero at the pivot
    z = z - z[pivot]

    message = ""
    grow_streak = 0
    for n in range(1, n_terms + 1):
        for factor in sweep:
            z = z + _line_solve(factor, b - A @ z)
        v, res = measure(z)
        history.append(res)
        if res < best_res:
            best_v, best_res, best_terms = v, res, n
        grow_streak = grow_streak + 1 if res > history[-2] else 0
        if grow_streak >= 3:
            message = f"residual grew for {grow_streak} consecutive terms; returning best iterate (after {best_terms} terms)"
            break
        if res <= SERIES_CONVERGED_TOL:
            message = f"converged after {n} terms"
            break
        if abs(history[-2] - res) <= SERIES_STALL_TOL * history[-2]:
            message = f"residual stalled (relative change at most {SERIES_STALL_TOL:g}) after {n} terms; stopping"
            break

    if not message:
        message = f"stopped after {len(history) - 1} terms without reaching {SERIES_CONVERGED_TOL:g}"
    return SeriesResult(RelativeCosts(v=best_v, anchor=0, residual=best_res), tuple(history),
                        best_res <= SERIES_CONVERGED_TOL, message)


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
    the empty law for a class that no state admits.  Raises
    :class:`NumericsError` when the admitting states' stationary
    probabilities underflow to zero."""
    per_class = []
    for k in range(space.K):
        mask = space.admissible[:, k]
        if not mask.any():
            per_class.append(())
            continue
        weight = pi[mask]
        total = weight.sum()
        # pi is positive on every state, so a zero sum is underflow
        if total <= 0:
            raise NumericsError(f"class {k + 1}: the stationary probability of its admitting "
                                "states underflows to zero")
        pk = prices.p[mask, k]
        order = np.argsort(pk)
        price, mass = _merge_atoms(pk[order], weight[order] / total, BILL_MERGE_TOL)
        per_class.append(tuple(zip(price.tolist(), mass.tolist())))
    return BillDistribution(per_class=tuple(per_class))

