"""Batch command-line front end.

Four subcommands map onto the analysis pipeline::

    losscost stationary --model m.json --out results/
    losscost shadow     --model m.json --out results/ --method exact
    losscost costdist   --model m.json --out results/ --t 5 --scheme closed
    losscost simulate   --model m.json --out results/ --t 5 --reps 10000

Every run writes its outputs as CSV plus a ``run_manifest.json`` that records
the command, parameters, seed, tool version, state-space size and wall-clock
time; the data files are byte-reproducible given the same model, flags and
seed.  Exit codes: 0 success, 1 validation error, 2 numeric failure,
3 success with warnings.  Each warning is one ``warning:`` line on stderr,
and the manifest keeps their count as ``warnings`` and their texts as
``warning_messages``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .model import (ModelError, NumericsError, _check_horizon, blocking_probabilities,
                    enumerate_states, stationary)
from .model_io import load_model
from . import costdist as cd
from . import howard as hw
from . import report
from .simulate import (SimConfig, empirical_bill_hist, empirical_quantile,
                       empirical_total_cost_hist, simulate)

# relative-cost approximations, v = fn(space, classes, g); looked up in
# ``howard`` at call time, so wrappers installed on its names see the calls
_APPROXIMATIONS = {
    "symmetric": lambda space, classes, g: hw.symmetric_relative_costs(space, classes, g).v,
    "equal-bandwidth": lambda space, classes, g: hw.equal_bandwidth_relative_costs(space, classes, g).v,
    "general": lambda space, classes, g: hw.general_relative_costs(space, classes, g).v,
}
_METHODS = ("exact", *_APPROXIMATIONS, "series")
# pass bounds of the simulate comparisons: |z| of a mean, and the occupancy
# total-variation distance
Z_BOUND = 3.0
TV_BOUND = 0.05


def _load(args):
    classes, policy = load_model(args.model)
    space = enumerate_states(classes, policy)
    return classes, space, stationary(space, classes)


def cmd_stationary(args) -> tuple[list[str], dict]:
    classes, space, dist = _load(args)
    out = Path(args.out)
    report.write_table(out / "pi.csv", report.state_header(space.K) + ["probability"],
                       [*space.occupancy.T, dist.pi])
    bp = blocking_probabilities(space, dist.pi)
    report.write_table(out / "summary.csv", ["G", "g"] + [f"blocking_prob_{k + 1}" for k in range(space.K)],
                       [["overflow"] if dist.G is None else [dist.G], [dist.g], *bp.reshape(-1, 1)])
    return [], {"states": len(space)}


def _relative_costs(space, classes, dist, method: str, terms: int | None):
    """(costs, residual history, manifest entries) of one ``--method``;
    ``terms`` is read by ``series`` only."""
    if method == "exact":
        costs = hw.solve_howard_exact(space, classes, dist.g, dist.r)
        return costs, (costs.residual,), {"solver": _solver_meta(costs)}
    if method == "series":
        result = hw.series_refine(space, classes, dist.g, dist.r, n_terms=terms)
        return result.costs, result.residual_history, {
            "series": {"converged": result.converged, "message": result.message}}
    v = _APPROXIMATIONS[method](space, classes, dist.g)
    res = hw.howard_residual(space, classes, v, dist.g, dist.r)
    return hw.RelativeCosts(v=v, anchor=0, residual=res), (res,), {}


def cmd_shadow(args) -> tuple[list[str], dict]:
    meta = {}
    if args.method == "series":
        meta["terms"] = hw.SERIES_TERMS if args.terms is None else args.terms
    elif args.terms is not None:
        raise ModelError(f"--terms applies to --method series only, not {args.method}")
    classes, space, dist = _load(args)
    costs, history, entries = _relative_costs(space, classes, dist, args.method, meta.get("terms"))
    warnings = ([f"series did not converge: {entries['series']['message']}"]
                if "series" in entries and not entries["series"]["converged"] else [])
    out = Path(args.out)
    report.write_relative_costs(out / "relative_costs.csv", space, costs)
    prices = hw.shadow_prices(costs, space)
    report.write_shadow_prices(out / "shadow_prices.csv", space, prices)
    report.write_bill_distribution(out / "bill_dist.csv", hw.bill_distribution(prices, dist.pi, space))
    report.write_table(out / "residuals.csv", ["method", "terms", "residual"],
                       [args.method, np.arange(len(history)), np.array(history, dtype=float)])
    return warnings, {"states": len(space), "method": args.method, **meta, **entries}


def _solver_meta(costs) -> dict:
    """The ``solver`` object of an exact solve's manifest."""
    return {"path": costs.solver, "iterations": costs.iterations,
            "condition": costs.condition, "residual": costs.residual}


def cmd_costdist(args) -> tuple[list[str], dict]:
    if args.scheme == "closed" and args.steps is not None:
        raise ModelError("--steps applies to the shadow and simple schemes only, not closed")
    classes, space, dist = _load(args)
    out, t, meta = Path(args.out), args.t, {}
    r_max = args.rmax if args.rmax is not None else cd.default_r_max(classes, t)
    if args.scheme == "closed":
        grid = cd.closed_form_grid(space, classes, t, r_max, dist=dist)
    else:
        steps = args.steps if args.steps is not None else cd.default_steps(space, classes, t)
        evolve = cd.evolve_shadow_costs if args.scheme == "shadow" else cd.evolve_simple_costs
        grid = evolve(space, classes, t, steps, r_max, warn=False)
        meta["steps"] = steps
    total = cd.TotalCostDistribution.from_mass(t, grid.total_cost(), grid.leakage)
    report.write_cost_grid(out / "cost_dist.csv", space, grid)
    report.write_total_cost(out / "total_cost.csv", t, total.mass)
    report.write_risk(out / "risk.csv", total)
    warnings = ([f"cost truncation leaked {total.leakage:.3e} probability past r_max={grid.r_max}, "
                 f"above LEAKAGE_WARN={cd.LEAKAGE_WARN:g}"] if total.leakage > cd.LEAKAGE_WARN else [])
    return warnings, {"states": len(space), "scheme": args.scheme, "r_max": grid.r_max, **meta}


def cmd_simulate(args) -> tuple[list[str], dict]:
    classes, space, dist = _load(args)
    # a quarter of the horizon is discarded for the stationary estimates
    # (occupancy, bills); cost accumulates from time zero
    config = SimConfig(horizon=args.t, replications=args.reps, seed=args.seed, warmup=args.t / 4.0)
    costs = hw.solve_howard_exact(space, classes, dist.g, dist.r)
    prices = hw.shadow_prices(costs, space)
    result = simulate(space, classes, config, prices=prices)
    out = Path(args.out)
    t, n, states = report.fmt(args.t), args.reps, report.state_header(space.K)

    report.write_table(out / "pi_mc.csv", states + ["probability", "se"],
                       [*space.occupancy.T, result.occupancy, result.occupancy_se])
    cells, counts = np.unique(np.column_stack([result.final_states, result.total_cost_samples]),
                              axis=0, return_counts=True)
    prob = counts / n
    report.write_table(out / "cost_dist_mc.csv", ["t"] + states + ["r", "probability", "se"],
                       [t, *space.occupancy[cells[:, 0]].T, cells[:, 1], prob,
                        np.sqrt(prob * (1.0 - prob) / n)])
    samples = result.total_cost_samples
    hist = empirical_total_cost_hist(samples, int(samples.max()))
    report.write_table(out / "total_cost_mc.csv", ["t", "r", "probability", "wilson_low", "wilson_high"],
                       [t, np.arange(len(hist[0])), *hist])
    report.write_table(out / "risk_mc.csv", ["t", "mean", "se", "q95", "q99"],
                       [t, [result.mean_cost()], [result.mean_cost_se()],
                        [empirical_quantile(samples, 0.95)], [empirical_quantile(samples, 0.99)]])
    report.write_bill_distribution(out / "bill_dist_mc.csv", hw.BillDistribution(tuple(
        empirical_bill_hist(result, k) if len(result.bill_samples[k]) else () for k in range(space.K))))

    comparisons = simulation_checks(space, dist, costs, prices, result)
    names, *values, passed = zip(*comparisons)
    report.write_table(out / "comparison.csv", ["quantity", "simulated", "analytic", "se", "z", "pass"],
                       [names, *(np.array(v, dtype=float) for v in values), np.array(passed, dtype=bool)])
    failed = [_failed_comparison(*c[:5]) for c in comparisons if not c[5]]
    return failed, {"states": len(space), "replications": n, "events": result.events,
                    "checks_failed": len(failed), "solver": _solver_meta(costs)}


def _failed_comparison(name, simulated, analytic, se, z) -> str:
    """The warning of a failed ``comparison.csv`` row."""
    if name == "occupancy_tv_distance":
        return f"comparison {name} failed: TV distance {simulated:.4g}, not below {TV_BOUND:g}"
    return (f"comparison {name} failed: simulated {simulated:.6g} against analytic {analytic:.6g}, "
            f"z = {z:+.2f}, |z| > {Z_BOUND:g}")


def simulation_checks(space, dist, costs, prices, result) -> list[tuple]:
    """Rows (quantity, simulated, analytic, se, z, pass) of ``comparison.csv``:
    analytic references for what the simulation measures.

    Starting empty, the expected accumulated cost over [0, t] is
    t*g - sum_q pi(q) v(q) up to an exponentially small mixing remainder,
    with v anchored at the empty state.
    """
    n = result.config.replications
    comparisons = []
    analytic_mean = result.config.horizon * dist.g - float(dist.pi @ costs.v)
    se = result.mean_cost_se()
    if np.isfinite(se) and se > 0:
        z = (result.mean_cost() - analytic_mean) / se
        comparisons.append(("mean_total_cost", result.mean_cost(), analytic_mean, se, z, abs(z) <= Z_BOUND))
    tv = 0.5 * float(np.abs(result.occupancy - dist.pi).sum())
    comparisons.append(("occupancy_tv_distance", tv, 0.0, float("nan"), float("nan"), tv < TV_BOUND))
    bills = hw.bill_distribution(prices, dist.pi, space)
    for k in range(space.K):
        # pooled ratio estimator over replications; the delta-method standard
        # error uses per-replication (sum, count) influence terms, which are
        # independent, while bills inside one replication are not
        if len(result.bill_samples[k]) < 100 or n < 10:
            continue
        sums = np.bincount(result.bill_reps[k], weights=result.bill_samples[k], minlength=n)
        counts = np.bincount(result.bill_reps[k], minlength=n).astype(float)
        emp = float(sums.sum() / counts.sum())
        ana = bills.mean(k)
        bse = float(np.sqrt(np.sum((sums - emp * counts) ** 2)) / counts.sum())
        z = (emp - ana) / bse if bse > 0 else 0.0
        comparisons.append((f"mean_bill_class_{k + 1}", emp, ana, bse, z, abs(z) <= Z_BOUND))
    return comparisons


def horizon(text: str) -> float:
    """argparse type of ``--t``: a finite float above zero."""
    return _check_horizon(float(text))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call
    ap = argparse.ArgumentParser(prog="losscost", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")

    p = sub.add_parser("stationary", help="stationary distribution and cost rate")
    common(p)
    p.set_defaults(fn=cmd_stationary)

    p = sub.add_parser("shadow", help="relative costs, shadow prices, bill distribution")
    common(p)
    p.add_argument("--method", default="exact", choices=_METHODS)
    p.add_argument("--terms", type=int, default=None,
                   help=f"series correction terms (--method series only; default {hw.SERIES_TERMS})")
    p.set_defaults(fn=cmd_shadow)

    p = sub.add_parser("costdist", help="accumulated-cost distribution over a horizon")
    common(p)
    p.add_argument("--t", type=horizon, required=True, help="time horizon, finite and > 0")
    p.add_argument("--scheme", default="closed", choices=("shadow", "simple", "closed"))
    p.add_argument("--steps", type=int, default=None,
                   help="recursion steps of the shadow and simple schemes (default: minimal valid)")
    p.add_argument("--rmax", type=int, default=None, help="cost truncation of every scheme (default: leaks <= 1e-6)")
    p.set_defaults(fn=cmd_costdist)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check")
    common(p)
    p.add_argument("--t", type=horizon, required=True, help="horizon per replication, finite and > 0")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that is a validation failure here
        return 0 if exc.code == 0 else 1
    out = Path(args.out)
    started = time.time()
    try:
        out.mkdir(parents=True, exist_ok=True)
        warnings, meta = args.fn(args)
        manifest = {
            "command": args.command,
            "model": str(args.model),
            "out": str(out),
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in {"fn", "command", "model", "out"} and v is not None},
            "tool_version": __version__,
            "elapsed_seconds": round(time.time() - started, 6),
            "warnings": len(warnings),
            "warning_messages": warnings,
            **meta,
        }
        report.write_manifest(out / "run_manifest.json", manifest)
    except (ModelError, OSError) as exc:
        # OSError: a model or output path that cannot be read, made or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)
    return 3 if warnings else 0


if __name__ == "__main__":
    sys.exit(main())
