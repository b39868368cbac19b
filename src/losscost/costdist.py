"""Distributions of accumulated blocking cost over a finite horizon.

The joint process (state q, accumulated cost r) is tracked on an integer
cost lattice: every blocked class-j arrival adds the integer omega_j.  Two
charging schemes are implemented.

* The *shadow* scheme charges along the real trajectory: the joint law
  follows a discrete-step recursion on the lattice, driven by the same
  transition rates as the occupancy chain, started from an empty system.
* The *simple* scheme decouples cost from occupancy: in state q cost accrues
  as if the admission sets were frozen, which makes the joint law a product
  of the stationary law and one cost law per charging mask (the blocked
  classes with lam > 0 and omega > 0).  One per-mask kernel builds every
  such law, for one state or for all: in continuous time a convolution of
  closed-form Poisson factors, in discrete time the n-fold convolution of
  the one-step law.  Each factor carries a log scale, so horizons whose
  probability of no charge underflows still give every representable cell.

Both schemes generate the same average cost rate g, so the tractable simple
scheme is the practical risk model; the recursion for the shadow scheme is
kept as the reference dynamics.  A balance check that exhibits where the
product form fails for the shadow dynamics is included, as is a standalone
solver for the second-order cost recursion f(q+2) - (q+a) f(q+1) +
rho (q+1) f(q) = 0 that appears when separating such cost chains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from .model import (
    DEFAULT_STATE_CAP,
    ModelError,
    NumericsError,
    StateSpace,
    StateSpaceSizeError,
    StationaryDistribution,
    TrafficClass,
    _charging,
    _check_horizon,
    sparse_generator,
    stationary,
)
from .report import write_cost_grid, write_risk, write_total_cost

__all__ = [
    "CostGrid",
    "TotalCostDistribution",
    "BalanceViolation",
    "CostRecursionSolution",
    "StepSizeError",
    "max_outflow_rate",
    "evolve_shadow_costs",
    "evolve_simple_costs",
    "closed_form_discrete",
    "closed_form_continuous",
    "closed_form_grid",
    "default_r_max",
    "default_steps",
    "total_cost_distribution",
    "detailed_balance_counterexample",
    "recursion_solve",
    "write_cost_grid",
    "write_total_cost",
    "write_risk",
]

LEAKAGE_WARN = 1e-6
# smallest detailed-balance gap reported as a violation
BALANCE_TOL = 1e-9
# decimal digits of the mpmath arithmetic in the cost-recursion solve
RECURSION_DPS = 50
STEP_LIMIT = 0.5
# most (state, cost) cells, states x (r_max + 1), that a cost law may span
LATTICE_CAP = 8 * DEFAULT_STATE_CAP
# most cell-steps, steps x states x (r_max + 1), of the shadow recursion:
# about a minute at 2.6e8 cell-steps/s (b123(40), lambda (12, 5, 3), t = 3)
SHADOW_WORK_CAP = 2**34


class StepSizeError(ModelError):
    """Discrete step too coarse for the transition probabilities to be valid."""


@dataclass
class CostGrid:
    """Joint mass over (state index, accumulated cost r) after ``steps`` steps
    (0 for the continuous-time closed form), of whichever scheme built it.

    ``mass[i, r]`` for r in 0..r_max; ``leakage`` is the probability mass that
    ran past r_max during the evolution (total mass + leakage = 1).
    """

    mass: np.ndarray
    horizon: float
    steps: int
    r_max: int
    leakage: float

    @property
    def marginal(self) -> np.ndarray:
        """Occupancy marginal sum_r mass[., r]."""
        return self.mass.sum(axis=1)

    def total_cost(self) -> np.ndarray:
        """Cost marginal sum_q mass[q, .]."""
        return self.mass.sum(axis=0)

    def mean_cost(self) -> float:
        return float(self.total_cost() @ np.arange(self.r_max + 1))


def max_outflow_rate(space: StateSpace, classes: Sequence[TrafficClass]) -> float:
    """Largest total event rate over states: all arrivals plus departures."""
    lam_total = sum(c.lam for c in classes)
    mu = np.array([c.mu for c in classes])
    return float(lam_total + (space.occupancy * mu).sum(axis=1).max())


def _check_r_max(space: StateSpace, r_max: int) -> None:
    """Reject a cost truncation that is negative or whose (state, cost)
    lattice would pass ``LATTICE_CAP`` cells, before anything is built."""
    if r_max < 0:
        raise ModelError(f"r_max must be >= 0, got {r_max}")
    if len(space) * (r_max + 1) > LATTICE_CAP:
        raise StateSpaceSizeError(
            f"r_max={r_max} over {len(space)} states passes the cost lattice cap of "
            f"{LATTICE_CAP} cells (states x (r_max + 1))"
        )


def default_steps(space: StateSpace, classes: Sequence[TrafficClass], t: float) -> int:
    """Smallest step count over horizon t whose step keeps dt times the peak
    event rate within ``STEP_LIMIT``: ceil(t * max_outflow_rate / STEP_LIMIT)."""
    bound = t * max_outflow_rate(space, classes) / STEP_LIMIT
    if not math.isfinite(bound):
        raise ModelError(f"horizon {t:g} times the peak event rate is not finite; no step count fits")
    return math.ceil(bound)


def _check_step(space, classes, horizon, steps) -> float:
    if steps < 1:
        raise ModelError(f"steps must be >= 1, got {steps}")
    _check_horizon(horizon)
    dt = horizon / steps
    rate = max_outflow_rate(space, classes)
    if dt * rate > STEP_LIMIT:
        raise StepSizeError(
            f"step {dt:g} times peak rate {rate:g} is {dt * rate:.3g} > {STEP_LIMIT}; "
            f"use at least {default_steps(space, classes, horizon)} steps"
        )
    return dt


def evolve_shadow_costs(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    horizon: float,
    steps: int,
    r_max: int,
    warn: bool = True,
) -> CostGrid:
    """Evolve the joint (state, cost) law of the shadow scheme from empty.

    A step of length dt = horizon/steps applies the CSR operator
    P = (I + dt (Q - diag(charge @ lam)))^T, with Q the occupancy generator
    :func:`~losscost.model.sparse_generator`, then moves dt lam_j of the mass
    of every state where class j charges from r to r + omega_j.  Blocked
    classes that never charge keep their mass on P's diagonal; mass pushed
    past r_max is accumulated as leakage.  A run of more than
    ``SHADOW_WORK_CAP`` cell-steps, steps x states x (r_max + 1), is refused
    with :class:`ModelError` before the first step.
    """
    classes = tuple(classes)
    _check_r_max(space, r_max)
    dt = _check_step(space, classes, horizon, steps)
    n = len(space)
    work = steps * n * (r_max + 1)
    if work > SHADOW_WORK_CAP:
        raise ModelError(f"{steps} steps over {n} states x {r_max + 1} costs is {work:.3g} "
                         f"cell-steps, past the shadow recursion's cap of {SHADOW_WORK_CAP}")
    lam, omega, charge = _charging(space, classes)
    P = (scipy.sparse.identity(n, format="csr")
         + dt * (sparse_generator(space, classes) - scipy.sparse.diags(charge @ lam))).T.tocsr()
    shifts = [(np.flatnonzero(charge[:, j]), dt * lam[j], int(omega[j]))
              for j in range(space.K) if charge[:, j].any()]

    mass = np.zeros((n, r_max + 1))
    mass[0, 0] = 1.0
    leakage = 0.0
    for _ in range(steps):
        new = P @ mass
        for rows, p, w in shifts:
            src = mass[rows]
            if w <= r_max:
                new[rows, w:] += p * src[:, :-w]
            leakage += p * src[:, max(0, r_max - w + 1):].sum()
        mass = new
    return _warned(CostGrid(mass=mass, horizon=horizon, steps=steps, r_max=r_max,
                            leakage=leakage), r_max, warn)


def evolve_simple_costs(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    horizon: float,
    steps: int,
    r_max: int,
    warn: bool = True,
) -> CostGrid:
    """The simple scheme after ``steps`` steps from the stationary occupancy,
    checked and warned about as :func:`evolve_shadow_costs` is.

    Occupancy stays frozen and each charging class j moves cost from r to
    r + omega_j with probability dt lam_j per step, so a state's cost law is
    the n-fold convolution of :func:`closed_form_discrete`, one per mask.
    """
    classes = tuple(classes)
    _check_r_max(space, r_max)
    dt = _check_step(space, classes, horizon, steps)
    return _warned(_mixed_grid(space, classes, stationary(space, classes),
                               partial(_binomial_law, steps, dt, r_max),
                               horizon, steps, r_max), r_max, warn)


def _warned(result, r_max: int, warn: bool):
    """``result`` (a grid or a total-cost law), after a warning when ``warn``
    and its leakage is above ``LEAKAGE_WARN``."""
    if warn and result.leakage > LEAKAGE_WARN:
        warnings.warn(f"cost truncation leaked {result.leakage:.3e} probability past r_max={r_max}")
    return result


def _unit(r_max: int) -> tuple[np.ndarray, float]:
    """The law of a cost that is 0 for sure, on 0..r_max."""
    law = np.zeros(r_max + 1)
    law[0] = 1.0
    return law, 0.0


def _convolve(a: tuple, b: tuple, r_max: int) -> tuple[np.ndarray, float]:
    """Law of the sum of two independent costs on 0..r_max, each given as a
    law and its log scale; the sum is scaled to a maximum of 1.

    Only the spans between the first and last nonzero cells are convolved.
    Cost never decreases, so truncating the sum at r_max is exact.
    """
    (x, x_scale), (y, y_scale) = a, b
    (xs,), (ys,) = np.nonzero(x), np.nonzero(y)
    law = np.zeros(r_max + 1)
    if len(xs) and len(ys) and xs[0] + ys[0] <= r_max:
        lo = xs[0] + ys[0]
        span = np.convolve(x[xs[0]:xs[-1] + 1], y[ys[0]:ys[-1] + 1])[:r_max + 1 - lo]
        law[lo:lo + len(span)] = span
    top = law.max()
    return (law / top, x_scale + y_scale + math.log(top)) if top > 0 else (law, -math.inf)


def _poisson_law(t: float, r_max: int, lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Law of sum_j omega_j N_j, N_j ~ Poisson(t lam_j), on 0..r_max.

    Class j's factor is log p(k) = k log(t lam_j) - t lam_j - log k! on the
    cells omega_j k, shifted to a maximum of 0 so that p(0) may underflow.
    :func:`_convolve` combines the factors from positive terms only.
    """
    law = _unit(r_max)
    for l, w in zip(lam, omega):
        mean, k = t * float(l), r_max // int(w) + 1
        logp = np.arange(k) * math.log(mean) - mean - np.fromiter(
            map(math.lgamma, range(1, k + 1)), float, k)
        top = logp.max()
        factor = np.zeros(r_max + 1)
        factor[::int(w)] = np.exp(logp - top)
        law = _convolve(law, (factor, top), r_max)
    return law[0] * math.exp(law[1])


def _binomial_law(n: int, step: float, r_max: int, lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Cost law after n steps in which class j adds omega_j with probability
    step * lam_j, on 0..r_max.

    The n-fold convolution power of the one-step law by repeated squaring
    through :func:`_convolve`, so (1 - step sum_j lam_j)^n may underflow.
    """
    rate = float(lam.sum())
    decay = 1.0 - step * rate
    if decay < 0:
        raise StepSizeError(f"step {step:g} too large for blocked rate {rate:g}")
    one = np.zeros(r_max + 1)
    one[0] = decay
    fits = omega <= r_max
    np.add.at(one, omega[fits], step * lam[fits])
    power = (one, 0.0)
    law = _unit(r_max)
    while n:
        if n & 1:
            law = _convolve(law, power, r_max)
        n >>= 1
        if n:
            power = _convolve(power, power, r_max)
    return law[0] * math.exp(law[1])


def closed_form_discrete(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    n: int,
    step: float,
    state: int,
    r: int,
    dist: StationaryDistribution | None = None,
) -> float:
    """Simple-scheme joint probability of (state, cost r) after n steps of
    size ``step``, using the stationary occupancy marginal.

    The state's cost law is the n-fold convolution of its one-step law, in
    which charging class j adds omega_j with probability step * lam_j.
    Raises :class:`StepSizeError` when no charge has negative probability.
    Pass a precomputed ``dist`` when calling in a loop.
    """
    return _state_cell(space, classes, state, r, dist, partial(_binomial_law, n, step, r))


def closed_form_continuous(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    t: float,
    state: int,
    r: int,
    dist: StationaryDistribution | None = None,
) -> float:
    """Continuous-time limit of the simple-scheme joint law.

    In state q the cost after time t is a compound Poisson sum over the
    charging classes; the joint probability is that law times pi(q).
    """
    _check_horizon(t)
    return _state_cell(space, classes, state, r, dist, partial(_poisson_law, t, r))


def _state_cell(space, classes, state, r, dist, law) -> float:
    """pi(state) times ``law(lam, omega)`` of the state's charging classes at
    cost r (0 below r = 0)."""
    if r < 0:
        return 0.0
    classes = tuple(classes)
    if dist is None:
        dist = stationary(space, classes)
    lam, omega, charge = _charging(space, classes)
    return float(law(lam[charge[state]], omega[charge[state]])[r]) * float(dist.pi[state])


def _mask_laws(space: StateSpace, classes: Sequence[TrafficClass],
               law: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, laws): ``law(lam, omega)`` of the charging classes once per
    distinct charging mask, and the index of each state's law."""
    lam, omega, charge = _charging(space, classes)
    masks, inverse = np.unique(charge, axis=0, return_inverse=True)
    return inverse.reshape(-1), np.array([law(lam[m], omega[m]) for m in masks])


def _mixed_grid(space, classes, dist, law, horizon, steps, r_max) -> CostGrid:
    """The simple-scheme grid pi(q) times the cost law of q's charging mask;
    ``leakage`` is the mass past r_max."""
    inverse, laws = _mask_laws(space, classes, law)
    mass = dist.pi[:, None] * laws[inverse]
    return CostGrid(mass=mass, horizon=horizon, steps=steps, r_max=r_max,
                    leakage=max(0.0, 1.0 - float(mass.sum())))


def closed_form_grid(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    t: float,
    r_max: int,
    dist: StationaryDistribution | None = None,
) -> CostGrid:
    """:func:`closed_form_continuous` for every state and r = 0..r_max.

    ``steps`` is 0 (continuous time); ``leakage`` is the mass past r_max.
    """
    _check_horizon(t)
    _check_r_max(space, r_max)
    classes = tuple(classes)
    if dist is None:
        dist = stationary(space, classes)
    return _mixed_grid(space, classes, dist, partial(_poisson_law, t, r_max), t, 0, r_max)


@dataclass(frozen=True)
class TotalCostDistribution:
    """Cost marginal sum_q of a cost law at time t, of any scheme, with its
    mean and 95%/99% quantiles; ``leakage`` is the mass past the truncation."""

    t: float
    mass: np.ndarray
    mean: float
    q95: int
    q99: int
    leakage: float

    @classmethod
    def from_mass(cls, t: float, mass: np.ndarray, leakage: float) -> "TotalCostDistribution":
        """Risk summary of a truncated cost law: mean and 95%/99% quantiles
        (the smallest r whose cumulative mass reaches the level).  When the
        truncated mass never reaches a level, that quantile is
        ``len(mass)``, r_max + 1: it lies past the truncation."""
        cum = np.cumsum(mass)
        return cls(t, mass, float(mass @ np.arange(len(mass))),
                   int(np.searchsorted(cum, 0.95)), int(np.searchsorted(cum, 0.99)), leakage)


def default_r_max(classes: Sequence[TrafficClass], t: float) -> int:
    """Cost truncation over time t whose leak is at most ``LEAKAGE_WARN`` under
    every scheme.

    Each scheme's cost R(t) has a moment generating function at or below that
    of the all-charging sum S = sum_j omega_j N_j, N_j ~ Poisson(t lam_j), for
    every theta >= 0: in the closed law a state charges only a subset of the
    classes, and in a discrete step 1 + sum_j p_j (e^(theta omega_j) - 1) <=
    exp(sum_j p_j (e^(theta omega_j) - 1)), also conditionally on the state
    along the shadow chain.  So Bennett's inequality for S (Bennett 1962,
    JASA 57:33), which rests on that function alone, bounds every leak: with
    m = t sum_j lam_j omega_j, v = t sum_j lam_j omega_j^2 and b the largest
    omega_j with lam_j > 0, P(R(t) >= m + u v / b) <= LEAKAGE_WARN when
    h(u) = (1 + u) ln(1 + u) - u = c, c = ln(1 / LEAKAGE_WARN) b^2 / v.  h is
    convex and at most u^2 / 2, so Newton steps from u = sqrt(2 c), below the
    root, pass it at the first step and then fall towards it: each later
    iterate is a valid point.  The truncation is the larger of that point,
    rounded up, and the floor ceil(m + 10 sqrt(m + 1)) + 1, which decides
    where the costs are alike and keeps the truncated mean of a large-mean
    law close to the full one.
    """
    mean = t * sum(c.lam * c.omega for c in classes)
    var = t * sum(c.lam * c.omega * c.omega for c in classes)
    floor, point = mean + 10.0 * math.sqrt(mean + 1.0), 0.0
    if 0 < var < math.inf:
        b = max(c.omega for c in classes if c.lam > 0)
        level = math.log(1.0 / LEAKAGE_WARN) * b / (var / b)
        u = math.sqrt(2.0 * level)
        for _ in range(8):
            u -= ((1.0 + u) * math.log1p(u) - u - level) / math.log1p(u)
        point = mean + u * (var / b)
    if not math.isfinite(floor + var + point):
        raise ModelError(
            f"horizon {t:g} times the total charging rate is not finite; no cost truncation fits")
    return max(math.ceil(floor) + 1, math.ceil(point))


def total_cost_distribution(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    t: float,
    r_max: int | None = None,
) -> TotalCostDistribution:
    """Marginal law of the accumulated cost at time t under the simple scheme,
    truncated at ``r_max`` (default :func:`default_r_max`).

    Warns when the mass past r_max is above ``LEAKAGE_WARN``; the truncation
    must keep the (state, cost) lattice within ``LATTICE_CAP`` cells, else
    :class:`~losscost.model.StateSpaceSizeError` is raised.
    """
    _check_horizon(t)
    classes = tuple(classes)
    if r_max is None:
        r_max = default_r_max(classes, t)
    _check_r_max(space, r_max)
    inverse, laws = _mask_laws(space, classes, partial(_poisson_law, t, r_max))
    mass = np.bincount(inverse, weights=stationary(space, classes).pi, minlength=len(laws)) @ laws
    return _warned(TotalCostDistribution.from_mass(t, mass, max(0.0, 1.0 - float(mass.sum()))),
                   r_max, True)


@dataclass(frozen=True)
class BalanceViolation:
    """Worst detailed-balance violation of the product-form cost law.

    The occupancy factor alone satisfies detailed balance, so any violation
    comes from neighbouring states with different admission sets: the
    product-form law cannot be the stationary shape of the shadow-scheme
    recursion.  ``found`` is False only when no state blocks anything.
    """

    found: bool
    state: int | None
    cls: int | None
    r: int | None
    lhs: float
    rhs: float
    magnitude: float


def detailed_balance_counterexample(
    space: StateSpace,
    classes: Sequence[TrafficClass],
    t: float = 1.0,
    r_limit: int = 25,
) -> BalanceViolation:
    """Search (state, class, cost) for the largest violation of
    mu_i (q_i + 1) s(q+e_i, r) = lam_i s(q, r) under the product-form law;
    a gap of at most ``BALANCE_TOL`` is no violation.

    Ties go to the first (state, class, r) in lexicographic order."""
    classes = tuple(classes)
    s = closed_form_grid(space, classes, t, r_limit).mass
    has_up = space.up >= 0
    mu = np.array([c.mu for c in classes])
    lam = np.array([c.lam for c in classes])
    lhs = (mu * (space.occupancy + 1))[:, :, None] * s[np.where(has_up, space.up, 0)]
    rhs = lam[:, None] * s[:, None, :]
    gap = np.where(has_up[:, :, None], np.abs(lhs - rhs), 0.0)
    i, k, r = np.unravel_index(int(np.argmax(gap)), gap.shape)
    if not gap[i, k, r] > BALANCE_TOL:
        return BalanceViolation(False, None, None, None, 0.0, 0.0, 0.0)
    return BalanceViolation(True, int(i), int(k), int(r), float(lhs[i, k, r]),
                            float(rhs[i, k, r]), float(gap[i, k, r]))


@dataclass(frozen=True)
class CostRecursionSolution:
    """Solution of f(q+2) - (q+a) f(q+1) + rho (q+1) f(q) = 0 for q >= 0.

    f(q) is the convergent series of Gamma-function products

        f(q) = sum_{j >= 1} gamma_j Gp(q + a - rho - j),

    where Gp(y) = Gamma(y) / Gamma(y mod 1) is the finite product
    prod_{i=1..floor(y-1)} (i + y mod 1), continued below its defining range
    by its own step relation Gp(y+1) = y Gp(y); with it the residual
    telescopes away.  The coefficients come from the two recurrences

        alpha_1 = gamma_1 rho (rho + 2 - a),
        gamma_{i+1} = alpha_i / i,   alpha_{i+1} = (rho/i) alpha_i (2 + rho - a + i).

    ``gamma`` and ``alpha`` hold every coefficient the series used, ``f`` the
    solution at q = 0..q_max.  The boundary convention f(q) = 0 for q < 0 is
    respected in the only way it can be seen from q >= 0: the recursion
    instance at q = -1 forces f(1) = (a - 1) f(0), which the series satisfies
    automatically.
    """

    rho: float
    a: float
    gamma: tuple[float, ...]
    alpha: tuple[float, ...]
    f: tuple[float, ...]

    def residual(self, q: int) -> float:
        return self.f[q + 2] - (q + self.a) * self.f[q + 1] + self.rho * (q + 1) * self.f[q]


def recursion_solve(
    rho: float,
    a: float,
    q_max: int,
    gamma1: float = 1.0,
) -> CostRecursionSolution:
    """Closed-form solve of the separated cost recursion on q = 0..q_max, in
    ``RECURSION_DPS``-digit arithmetic.

    Sums the series of :class:`CostRecursionSolution` at each q until a term
    past j = q + 5 falls below 10^-(``RECURSION_DPS`` - 10) of the running
    total; ``gamma1`` sets the solution's scale.  Requires rho != 0,
    gamma1 != 0 and a - rho not an integer (at integers the Gamma products
    degenerate).  Raises :class:`ModelError` on a hypothesis violation and
    :class:`NumericsError` if the series has not converged after
    10 (q + |a - rho| + 50) terms.
    """
    if rho == 0.0:
        raise ModelError("rho must be nonzero")
    x = a - rho
    if abs(x - round(x)) < 1e-9:
        raise ModelError(
            f"a - rho = {x:g} is (numerically) an integer; the construction requires a - rho not in N"
        )
    if gamma1 == 0.0:
        raise ModelError("gamma1 must be nonzero (the solution scale)")
    # imported here: only this solve needs arbitrary precision
    import mpmath as mp

    def _gamma_product(y: mp.mpf) -> mp.mpf:
        # Gp(y) = Gamma(y) / Gamma(y mod 1): equals the finite product
        # prod_{j=1..floor(y-1)} (j + frac) for y above 1 and continues it by
        # Gp(y+1) = y Gp(y) elsewhere.
        frac = y - mp.floor(y)
        return mp.gamma(y) / mp.gamma(frac)

    with mp.workdps(RECURSION_DPS):
        mrho, ma, mx = mp.mpf(rho), mp.mpf(a), mp.mpf(a) - mp.mpf(rho)
        tol = mp.mpf(10) ** (-(RECURSION_DPS - 10))

        gammas = [mp.mpf(gamma1)]
        alphas = [mp.mpf(gamma1) * mrho * (mrho + 2 - ma)]

        def extend(upto: int) -> None:
            while len(gammas) < upto:
                i = len(gammas)
                gammas.append(alphas[-1] / i)
                alphas.append((mrho / i) * alphas[-1] * (2 + mrho - ma + i))

        def f_at(q: int) -> mp.mpf:
            total = mp.mpf(0)
            j = 1
            while True:
                extend(j)
                term = gammas[j - 1] * _gamma_product(q + mx - j)
                total += term
                if j > q + 5 and abs(term) < tol * (1 + abs(total)):
                    return total
                if j > 10 * (q + abs(x) + 50):
                    raise NumericsError(
                        f"cost-recursion series did not converge for rho={rho}, a={a}, q={q}"
                    )
                j += 1

        fvals = [f_at(q) for q in range(q_max + 1)]

        return CostRecursionSolution(
            rho=rho,
            a=a,
            gamma=tuple(float(gm) for gm in gammas),
            alpha=tuple(float(al) for al in alphas),
            f=tuple(float(v) for v in fvals),
        )
