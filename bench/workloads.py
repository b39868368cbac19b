"""Seeded workloads: model files, the ops each cycle runs, and their checks.

A workload is one or more op families (``pricing``, ``statespace``,
``risk``, ``montecarlo``), each a function that adds its models and ops to
the cycle; ``WORKLOADS`` says which families make up which workload.  A
family's structure is fixed: number of classes, bandwidths, capacities
or thresholds, methods and horizons in units of the model's own rates.  The
seed draws only loads (and, where they do not change the work done, costs)
within narrow bands, so state counts and op cost are the same for every
seed while the numbers the checks compare differ.

Every op runs through a public entry point, ``cli.main`` or a
library call, looked up at call time so that tracing wrappers apply.  Each
op has a check that compares its output with a value from ``oracles``.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# the package re-exports functions named like its modules (losscost.simulate
# is the function), so take the modules themselves from the import system
cli, costdist, model_mod, model_io, simulate = (
    importlib.import_module(f"losscost.{name}")
    for name in ("cli", "costdist", "model", "model_io", "simulate"))

TIGHT = 1e-9        # relative tolerance for values the program computes exactly
LAW_ABS = 1e-10     # absolute tolerance on individual probabilities
Z_LIMIT = 5.0       # Monte Carlo z-score limit; about 6e-7 false alarms per op


@dataclass
class Model:
    """One generated model file with its independent reference data."""

    name: str
    lam: list
    mu: list
    bandwidth: list
    omega: list
    capacity: int | None = None
    thresholds: list | None = None
    path: Path | None = None
    _ref: oracles.Reference | None = field(default=None, repr=False)

    def write(self, directory: Path) -> None:
        policy = ({"type": "full_sharing", "capacity": self.capacity} if self.thresholds is None
                  else {"type": "per_class", "thresholds": self.thresholds})
        doc = {"classes": [{"lambda": l, "mu": m, "bandwidth": b, "omega": w}
                           for l, m, b, w in zip(self.lam, self.mu, self.bandwidth, self.omega)],
               "policy": policy}
        self.path = directory / f"{self.name}.json"
        self.path.write_text(json.dumps(doc, indent=1))

    @property
    def loads(self):
        return [l / m for l, m in zip(self.lam, self.mu)]

    @property
    def ref(self) -> oracles.Reference:
        if self._ref is None:
            self._ref = oracles.Reference(self.lam, self.mu, self.bandwidth, self.omega,
                                          self.capacity, self.thresholds)
        return self._ref

    def blocking(self):
        if self.thresholds is None:
            return oracles.full_sharing_blocking(self.loads, self.bandwidth, self.capacity)
        return [oracles.erlang_b(r, t) for r, t in zip(self.loads, self.thresholds)]

    def g(self):
        """Average cost rate sum_j lam_j omega_j B_j (PASTA)."""
        return math.fsum(l * w * b for l, w, b in zip(self.lam, self.omega, self.blocking()))

    def state_count(self):
        if self.thresholds is None:
            return oracles.full_sharing_state_count(self.bandwidth, self.capacity)
        return math.prod(t + 1 for t in self.thresholds)

    def event_rate(self):
        """Stationary event rate: arrivals plus departures (= admitted arrivals)."""
        return math.fsum(l * (2.0 - b) for l, b in zip(self.lam, self.blocking()))


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not.

    ``run`` returns (exit code, payload); a library call maps ModelError to
    1 and NumericsError to 2 like the CLI does.  ``check(payload)`` returns
    None when the output matches its reference, else a message.
    """

    name: str
    run: Callable[[], tuple]
    check: Callable[[object], str | None]


def _close(x, y, rel=TIGHT, abs_=0.0):
    return abs(x - y) <= max(abs_, rel * max(abs(x), abs(y)))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


def _state(row, K):
    return tuple(int(row[f"q{k + 1}"]) for k in range(K))


class Workload:
    """Models, cycle of ops and warm-up ops for one workload and seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.rng: random.Random | None = None      # set per family by ``build``
        self.model_dir: Path | None = None
        self.ops: list[Op] = []
        self.warmups: list[Op] = []                 # one untimed op per family
        self._prepare: list[Callable[[], None]] = []
        # checks over the whole run, each returning None or a message
        self.final_checks: list[Callable[[], str | None]] = []

    # -- inputs --------------------------------------------------------
    def band(self, x, width=0.05):
        return x * self.rng.uniform(1.0 - width, 1.0 + width)

    def add_model(self, model: Model) -> Model:
        model.write(self.model_dir)
        return model

    def prepare_checks(self):
        """Compute the references the checks need (not part of set-up time)."""
        for step in self._prepare:
            step()

    # -- op builders ---------------------------------------------------
    def cli_op(self, name, argv, check):
        out = self.workdir / "out" / name
        argv = [*argv, "--out", str(out)]

        def run():
            return cli.main(argv), out

        return Op(name, run, check)

    def library_op(self, name, model, call, check):
        def run():
            try:
                classes, policy = model_io.load_model(model.path)
                space = model_mod.enumerate_states(classes, policy)
                return 0, (space, classes, call(space, classes))
            except model_mod.ModelError:
                return 1, None
            except model_mod.NumericsError:
                return 2, None

        return Op(name, run, check)


# ---------------------------------------------------------------- pricing

def _check_shadow(model: Model, method: str, oracle):
    """Relative costs against ``oracle()`` (exact values) or, for methods
    that only approximate, the reported residual against the residual the
    reference generator gives for the written v; bill laws sum to one."""

    def check(out):
        rows = _rows(out / "relative_costs.csv")
        K = len(model.lam)
        if len(rows) != model.state_count():
            return f"{len(rows)} relative costs for {model.state_count()} states"
        ref = model.ref
        v = np.zeros(len(ref.states))
        for row in rows:
            v[ref.index[_state(row, K)]] = float(row["v"])
        if oracle is not None:
            want = oracle()
            err = float(np.max(np.abs(v - want)))
            if err > 1e-8 * max(1.0, float(np.max(np.abs(want)))):
                return f"relative costs differ from the reference by {err:.3e}"
        else:
            reported = min(float(r["residual"]) for r in _rows(out / "residuals.csv"))
            mine = ref.residual(v)
            if not _close(reported, mine, rel=1e-6, abs_=1e-9):
                return f"reported residual {reported:.6e}, recomputed {mine:.6e}"
        mass = {}
        for row in _rows(out / "bill_dist.csv"):
            mass[row["class"]] = mass.get(row["class"], 0.0) + float(row["probability"])
        if len(mass) != K or any(abs(m - 1.0) > TIGHT for m in mass.values()):
            return f"bill laws do not sum to one: {mass}"
        return None

    return check


def _symmetric_oracle(model: Model):
    @functools.cache
    def values():
        lam = sum(model.lam)
        v_n = oracles.symmetric_relative_costs(lam, model.mu[0], model.capacity, model.g())
        return np.array([v_n[sum(q)] for q in model.ref.states])
    return values


def pricing(wl: Workload):
    """Relative costs and prices: dense generator, LU, series residuals.

    sym: K=3, bandwidth 1, one service rate, 969 states; every method
    applies and the exact ones have a closed-form reference.  mixed:
    bandwidths (1, 2, 3), 1,041 states; exact, series and the general
    approximation.  heavy: the fixed heavy-load tier (rho_k = C/4 at C=25,
    3,276 states) whose exact solve fails its residual gate today; it stays
    in the cycle so that the failure shows in the failure count, beside the
    three methods that are exact on this symmetric model and solve it.  The
    two series ops and the heavy exact solve cost about the same, so the tail
    (11th largest op) falls inside that cluster whatever the number of
    cycles.  The heavy tier's other three methods and the thresholds
    stationary op cost about the same too, and they sit in the middle of the
    workload's op times, so its median falls inside a dense cluster rather
    than in a gap between two.
    """
    sym = wl.add_model(Model("sym", [wl.band(2.0) for _ in range(3)], [1.0] * 3, [1] * 3,
                             [wl.rng.randint(1, 3) for _ in range(3)], capacity=16))
    mixed = wl.add_model(Model("mixed", [wl.band(4.0), wl.band(2.0), wl.band(1.0)],
                               [1.0, wl.band(1.5), wl.band(2.0)], [1, 2, 3],
                               [wl.rng.randint(1, 3) for _ in range(3)], capacity=30))
    heavy = wl.add_model(Model("heavy", [6.25] * 3, [1.0] * 3, [1] * 3, [1, 2, 3], capacity=25))

    def shadow(model, method, oracle):
        return wl.cli_op(f"shadow.{model.name}.{method}",
                         ["shadow", "--model", str(model.path), "--method", method],
                         _check_shadow(model, method, oracle))

    exact_sym = _symmetric_oracle(sym)
    exact_mixed = functools.cache(lambda: mixed.ref.relative_costs())
    exact_heavy = _symmetric_oracle(heavy)
    for method in ("exact", "series", "general", "equal-bandwidth", "symmetric"):
        wl.ops.append(shadow(sym, method, None if method == "series" else exact_sym))
    wl.ops.append(shadow(mixed, "exact", exact_mixed))
    wl.ops.append(shadow(mixed, "series", None))
    wl.ops.append(shadow(mixed, "general", None))
    for method in ("exact", "symmetric", "equal-bandwidth", "general"):
        wl.ops.append(shadow(heavy, method, exact_heavy))
    wl.warmups.append(shadow(mixed, "exact", None))
    wl._prepare += [exact_sym, exact_mixed, exact_heavy]


# ------------------------------------------------------------------- risk

def _risk_mean(out):
    return float(_rows(out / "risk.csv")[0]["mean"])


def _total_mass(out):
    return np.array([float(r["probability"]) for r in _rows(out / "total_cost.csv")])


def _check_closed(model: Model, t):
    def check(out):
        r_max = _manifest(out)["r_max"]
        want_cells = model.ref.closed_cells(t, 4 * r_max + 10)
        want = want_cells.sum(axis=0)
        mass = _total_mass(out)
        if len(mass) != r_max + 1:
            return f"{len(mass)} cost atoms for r_max={r_max}"
        err = float(np.max(np.abs(mass - want[:r_max + 1])))
        if err > LAW_ABS:
            return f"closed cost law differs from Panjer by {err:.3e}"
        leakage = 1.0 - float(mass.sum())
        if abs(leakage - float(want[r_max + 1:].sum())) > LAW_ABS:
            return f"mass + leakage != 1: leakage {leakage:.3e}"
        cells = _rows(out / "cost_dist.csv")
        K = len(model.lam)
        for row in cells:
            i = model.ref.index[_state(row, K)]
            if abs(float(row["probability"]) - want_cells[i, int(row["r"])]) > LAW_ABS:
                return f"cell {row} differs from Panjer"
        tg = t * model.g()
        tail_mean = float(np.arange(r_max + 1, len(want)) @ want[r_max + 1:])
        if abs(_risk_mean(out) - tg) > TIGHT * tg + tail_mean:
            return f"closed mean {_risk_mean(out):.12g} != t*g {tg:.12g}"
        return None

    return check


def _check_shadow_scheme(model: Model, t):
    def check(out):
        steps = _manifest(out)["steps"]
        rate = float(np.sum(model.lam) + np.max(model.ref.occupancy @ np.array(model.mu)))
        if t / steps * rate > 0.5 + 1e-12:
            return f"{steps} steps too coarse for peak rate {rate:g}"
        mass = _total_mass(out)
        total = float(mass.sum())
        if not 1.0 - 1e-6 <= total <= 1.0 + TIGHT:
            return f"shadow-scheme mass sums to {total!r}"
        mean = float(np.arange(len(mass)) @ mass)
        want = model.ref.discrete_mean_from_empty(t, steps)
        # leaked paths carry a cost just past r_max; allow twice that
        if abs(mean - want) > TIGHT * want + (1.0 - total) * 2 * len(mass):
            return f"shadow-scheme mean {mean:.12g} != reference {want:.12g}"
        return None

    return check


def _check_simple_scheme(model: Model, t):
    def check(out):
        man = _manifest(out)
        r_max = man["r_max"]
        # mass only moves up in cost, so the first r_max + 1 atoms of a longer
        # law are the truncated law
        want = model.ref.simple_discrete_total(t, man["steps"], 4 * r_max + 10)
        mass = _total_mass(out)
        if len(mass) != r_max + 1:
            return f"{len(mass)} cost atoms for r_max={r_max}"
        err = float(np.max(np.abs(mass - want[:r_max + 1])))
        if err > LAW_ABS:
            return f"simple-scheme cost law differs from reference by {err:.3e}"
        tg = t * model.g()
        mean = float(np.arange(r_max + 1) @ mass)
        tail_mean = float(np.arange(r_max + 1, len(want)) @ want[r_max + 1:])
        if abs(mean - tg) > TIGHT * tg + tail_mean:
            return f"simple-scheme mean {mean:.12g} != t*g {tg:.12g}"
        return None

    return check


def _check_balance(model: Model, t, r_limit):
    def check(payload):
        space, _, found = payload
        gap = model.ref.balance_violation(t, r_limit)
        if not found.found:
            return "no balance violation reported on a model with blocking"
        if not _close(found.magnitude, gap):
            return f"worst violation {found.magnitude:.6e}, reference {gap:.6e}"
        q = tuple(int(x) for x in space.states[found.state])
        ref = model.ref
        u = ref.index[q[:found.cls] + (q[found.cls] + 1,) + q[found.cls + 1:]]
        cells = ref.closed_cells(t, r_limit)
        lhs = ref.mu[found.cls] * (q[found.cls] + 1) * cells[u, found.r]
        rhs = ref.lam[found.cls] * cells[ref.index[q], found.r]
        if not (_close(found.lhs, lhs) and _close(found.rhs, rhs)):
            return f"balance sides at {q}, class {found.cls}, r={found.r} differ from reference"
        return None

    return check


def risk(wl: Workload):
    """Blocking-cost laws: closed form, shadow and simple recursions.

    Bandwidths (1, 2, 3), costs (1, 2, 3) fixed (the closed form's work
    depends on them), 204 and 358 states.  The horizon fixes the mean of the
    dominating Poisson bound, t * sum_j lam_j omega_j, at 17 and 12, so the
    default truncation is r_max = 61 and 50 for every seed, and the two
    closed-form ops cost about the same.
    """
    small, large = (
        wl.add_model(Model(name, [wl.band(4.0), wl.band(2.0), wl.band(1.0)], [1.0] * 3,
                           [1, 2, 3], [1, 2, 3], capacity=cap))
        for name, cap in (("small", 16), ("large", 20)))
    bound = {"small": 17.0, "large": 12.0}

    def horizon(m):
        return bound[m.name] / math.fsum(l * w for l, w in zip(m.lam, m.omega))

    def costdist_op(model, scheme, check):
        t = horizon(model)
        return wl.cli_op(f"costdist.{model.name}.{scheme}",
                         ["costdist", "--model", str(model.path), "--t", repr(t), "--scheme", scheme],
                         check(model, t))

    for scheme, check in (("closed", _check_closed), ("shadow", _check_shadow_scheme),
                          ("simple", _check_simple_scheme)):
        for model in (small, large):
            wl.ops.append(costdist_op(model, scheme, check))
    wl.ops.append(wl.library_op(
        "balance.large", large,
        lambda space, classes: costdist.detailed_balance_counterexample(
            space, classes, t=1.0, r_limit=25),
        _check_balance(large, 1.0, 25)))
    wl.warmups.append(costdist_op(small, "closed", _check_closed))
    wl._prepare.append(lambda: (small.ref, large.ref))


# ------------------------------------------------------------- montecarlo

class MeanTest:
    """z-test of sampled costs against an exact mean, per op and pooled.

    Each op's samples are tested alone and added to a pool; the pooled test
    at the end of the run has the power of every cycle's samples together.
    """

    def __init__(self, what, exact):
        self.what = what
        self.exact = exact          # callable: the exact mean
        self.n = self.total = self.squares = 0.0

    def _z(self, n, total, squares):
        mean = total / n
        var = (squares - n * mean * mean) / (n - 1)
        se = math.sqrt(max(var, 0.0) / n)
        z = (mean - self.exact()) / se if se > 0 else math.inf
        if abs(z) > Z_LIMIT:
            return f"{self.what} mean {mean:.6g} vs exact {self.exact():.6g}: z = {z:.2f} over {n:.0f}"
        return None

    def add(self, values, weights):
        """Test one op's samples (``values`` with counts ``weights``), then pool them."""
        n, total, squares = float(weights.sum()), float(values @ weights), float(values ** 2 @ weights)
        self.n, self.total, self.squares = self.n + n, self.total + total, self.squares + squares
        return self._z(n, total, squares)

    def pooled(self):
        return self._z(self.n, self.total, self.squares) if self.n > 1 else None


def _check_simulation(model: Model, reps, test: MeanTest):
    def check(out):
        rows = _rows(out / "total_cost_mc.csv")
        p = np.array([float(r["probability"]) for r in rows])
        if abs(p.sum() - 1.0) > TIGHT:
            return f"simulated cost histogram sums to {p.sum()!r}"
        occ = _rows(out / "pi_mc.csv")
        if len(occ) != model.state_count():
            return f"{len(occ)} occupancy rows for {model.state_count()} states"
        return test.add(np.arange(len(p), dtype=float), np.rint(p * reps))

    return check


def _check_sampler(test: MeanTest):
    def check(payload):
        samples = payload[2].astype(float)
        return test.add(samples, np.ones_like(samples))

    return check


def montecarlo(wl: Workload):
    """Simulator event loop plus the simple-scheme sampler.

    Bandwidths (1, 2, 3) at 358 and 1,041 states.  The large model's load
    stays where the exact solve succeeds: heavier, simulate exits 2 before
    simulating, and that defect is what pricing's heavy tier shows.  Each
    simulate op is sized to about 40,000 expected events: the horizon is
    40,000 / (replications x stationary event rate), so event counts do not
    depend on the seed.  The samplers draw 400,000 and 200,000 samples so
    that all five ops cost about the same; in the risk workload they sit in
    the middle of the cycle's op times, so its median falls inside a dense
    cluster rather than in a gap between two.
    """
    # offered bandwidth sum_j rho_j b_j = share * capacity: high enough that
    # replications started empty see blocking, low enough on the large model
    # for today's exact solve (which simulate runs first) to pass its gate
    small, large = (
        wl.add_model(Model(name, [wl.band(share * cap / 11 * x) for x in (4.0, 2.0, 1.0)],
                           [1.0] * 3, [1, 2, 3], [wl.rng.randint(1, 3) for _ in range(3)],
                           capacity=cap))
        for name, cap, share in (("small", 20, 0.85), ("large", 30, 0.65)))
    events = 40_000
    calls = [0]

    def next_seed():
        # every call draws a new stream, so pooled samples are independent
        calls[0] += 1
        return (wl.seed * 1_000_003 + calls[0]) % 2**31

    def register(test):
        wl.final_checks.append(test.pooled)
        return test

    def sim(model, reps):
        t = events / (reps * model.event_rate())
        name = f"simulate.{model.name}.{reps}"
        test = register(MeanTest(name, functools.cache(lambda: model.ref.expected_cost_from_empty(t))))
        wl._prepare.append(test.exact)
        out = wl.workdir / "out" / name
        base = ["simulate", "--model", str(model.path), "--t", repr(t), "--reps", str(reps),
                "--out", str(out)]

        def run():
            return cli.main([*base, "--seed", str(next_seed())]), out

        return Op(name, run, _check_simulation(model, reps, test))

    def sampler(model, samples):
        t = 5.0
        name = f"sampler.{model.name}"
        test = register(MeanTest(name, lambda: t * model.g()))
        return wl.library_op(
            name, model,
            lambda space, classes: simulate.simulate_simple_total_costs(
                space, classes, t, samples, seed=next_seed()),
            _check_sampler(test))

    mine = [sim(small, 200), sim(small, 500), sim(large, 200),
            sampler(small, 400_000), sampler(large, 200_000)]
    wl.ops += mine
    wl.warmups.append(mine[3])


# ------------------------------------------------------------- statespace

def _check_stationary(model: Model):
    def check(out):
        n = 0
        total = []
        with open(out / "pi.csv") as fh:
            next(fh)
            for line in fh:
                total.append(float(line.rsplit(",", 1)[1]))
                n += 1
        if n != model.state_count():
            return f"{n} states, expected {model.state_count()}"
        s = math.fsum(total)
        if abs(s - 1.0) > TIGHT:
            return f"stationary law sums to {s!r}"
        row = _rows(out / "summary.csv")[0]
        for k, want in enumerate(model.blocking()):
            got = float(row[f"blocking_prob_{k + 1}"])
            if not _close(got, want, abs_=1e-300):
                return f"class {k + 1} blocking {got!r}, reference {want!r}"
        if not _close(float(row["g"]), model.g(), abs_=1e-300):
            return f"g {row['g']}, reference {model.g()!r}"
        return None

    return check


def statespace(wl: Workload):
    """State enumeration, stationary law and pi.csv writing at ~10k states.

    Full sharing with bandwidths (1, 2, 3) at C=70 (11,022 states), unit
    bandwidth K=4 at C=20 (10,626 states), per-class thresholds (18, 20,
    22) (9,177 states).  Blocking is checked against Kaufman-Roberts and
    Erlang B, which need no state enumeration.
    """
    def omega(K):
        return [wl.rng.randint(1, 3) for _ in range(K)]

    mixed = wl.add_model(Model("mixed", [wl.band(12.0), wl.band(6.0), wl.band(4.0)], [1.0] * 3,
                               [1, 2, 3], omega(3), capacity=70))
    unit = wl.add_model(Model("unit4", [wl.band(5.0) for _ in range(4)], [1.0] * 4, [1] * 4,
                              omega(4), capacity=20))
    thr = wl.add_model(Model("thresholds", [wl.band(0.6 * t) for t in (18, 20, 22)], [1.0] * 3,
                             [1] * 3, omega(3), thresholds=[18, 20, 22]))
    for model in (mixed, unit, thr):
        wl.ops.append(wl.cli_op(f"stationary.{model.name}",
                                ["stationary", "--model", str(model.path)],
                                _check_stationary(model)))
    wl.warmups.append(wl.ops[-1])


# Two workloads, each one half of the paper's pipeline: the stationary law
# with relative costs and prices, and the blocking-cost laws with their Monte
# Carlo oracle.  On a shared host whose speed shifts between fast and slow
# phases lasting seconds to tens of seconds, two long runs average those
# phases out far better than four short runs in the same total time.
WORKLOADS = {"pricing": (pricing, statespace), "risk": (risk, montecarlo)}


def build(name: str, seed: int, workdir: Path) -> Workload:
    wl = Workload(name, seed, workdir)
    for family in WORKLOADS[name]:
        # each family draws from its own stream and writes its own model
        # files, so its inputs do not depend on which families share the cycle
        wl.rng = random.Random(f"losscost-bench/{family.__name__}/{seed}")
        wl.model_dir = workdir / family.__name__
        wl.model_dir.mkdir(parents=True, exist_ok=True)
        family(wl)
    return wl
