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
3 success with warnings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    ModelError,
    NumericsError,
    blocking_probabilities,
    enumerate_states,
    stationary,
)
from .model_io import load_model
from . import costdist as cd
from . import howard as hw
from .simulate import SimConfig, empirical_bill_hist, empirical_total_cost_hist, simulate

_METHODS = ("exact", "symmetric", "equal-bandwidth", "general", "series")
_SCHEMES = ("shadow", "simple", "closed")


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _write_pi(path: Path, space, pi) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"q{k + 1}" for k in range(space.K)] + ["probability"])
        for q, p in zip(space.states, pi):
            w.writerow(list(q) + [_fmt(p)])


def _write_summary(path: Path, space, dist) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = ["G", "g"] + [f"blocking_prob_{k + 1}" for k in range(space.K)]
        w.writerow(head)
        bp = blocking_probabilities(space, dist.pi)
        gval = _fmt(dist.G) if dist.G is not None else "overflow"
        w.writerow([gval, _fmt(dist.g)] + [_fmt(b) for b in bp])


def cmd_stationary(args, _=None) -> tuple[int, dict]:
    classes, policy = load_model(args.model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    out = Path(args.out)
    _write_pi(out / "pi.csv", space, dist.pi)
    _write_summary(out / "summary.csv", space, dist)
    return 0, {"states": len(space)}


def _relative_costs(space, classes, dist, method: str, terms: int):
    warnings = 0
    rows = []
    if method == "exact":
        costs = hw.solve_howard_exact(space, classes, dist.g, dist.r)
        rows.append((method, 0, costs.residual))
    elif method == "symmetric":
        costs = hw.symmetric_relative_costs(space, classes, dist.g)
        res = hw.howard_residual(space, classes, costs.v, dist.g, dist.r)
        costs = hw.RelativeCosts(v=costs.v, g=dist.g, anchor=0, residual=res)
        rows.append((method, 0, res))
    elif method == "equal-bandwidth":
        v = np.array([hw.relative_cost_equal_bandwidth_approx(q, classes, dist.g) for q in space.states])
        res = hw.howard_residual(space, classes, v, dist.g, dist.r)
        costs = hw.RelativeCosts(v=v, g=dist.g, anchor=0, residual=res)
        rows.append((method, 0, res))
    elif method == "general":
        v = np.array([hw.relative_cost_general_approx(q, classes, dist.g) for q in space.states])
        res = hw.howard_residual(space, classes, v, dist.g, dist.r)
        costs = hw.RelativeCosts(v=v, g=dist.g, anchor=0, residual=res)
        rows.append((method, 0, res))
    elif method == "series":
        result = hw.series_refine(space, classes, dist.g, dist.r, n_terms=terms)
        costs = result.costs
        for nterm, res in enumerate(result.residual_history):
            rows.append((method, nterm, res))
        if not result.converged:
            warnings += 1
    else:
        raise ModelError(f"unknown method {method!r}; choose from {_METHODS}")
    return costs, rows, warnings


def cmd_shadow(args, _=None) -> tuple[int, dict]:
    classes, policy = load_model(args.model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    costs, rows, warnings = _relative_costs(space, classes, dist, args.method, args.terms)
    out = Path(args.out)
    hw.write_relative_costs(out / "relative_costs.csv", space, costs)
    prices = hw.shadow_prices(costs, space)
    hw.write_shadow_prices(out / "shadow_prices.csv", space, prices)
    bills = hw.bill_distribution(prices, dist.pi, space)
    hw.write_bill_distribution(out / "bill_dist.csv", bills)
    with open(out / "residuals.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "terms", "residual"])
        for m, nterm, res in rows:
            w.writerow([m, nterm, _fmt(res)])
    return warnings, {"states": len(space), "method": args.method}


def cmd_costdist(args, _=None) -> tuple[int, dict]:
    classes, policy = load_model(args.model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    out = Path(args.out)
    warnings = 0
    t = args.t
    if t is None:
        raise ModelError("costdist requires --t")

    if args.scheme == "closed":
        total = cd.total_cost_distribution(space, classes, t, r_max=args.rmax)
        r_max = len(total.mass) - 1
        cd.write_cost_grid(out / "cost_dist.csv", space, cd.closed_form_grid(space, classes, t, r_max, dist=dist))
        cd.write_total_cost(out / "total_cost.csv", t, total.mass)
        cd.write_risk(out / "risk.csv", total)
        if total.leakage > cd.LEAKAGE_WARN:
            warnings += 1
        return warnings, {"states": len(space), "scheme": args.scheme, "r_max": r_max}

    rate = cd.max_outflow_rate(space, classes)
    steps = args.steps if args.steps else int(np.ceil(t * rate / cd.STEP_LIMIT))
    r_max = args.rmax if args.rmax is not None else cd.default_r_max(classes, t)
    evolve = cd.evolve_shadow_costs if args.scheme == "shadow" else cd.evolve_simple_costs
    grid = evolve(space, classes, t, steps, r_max, warn=False)
    if grid.leakage > cd.LEAKAGE_WARN:
        warnings += 1
    cd.write_cost_grid(out / "cost_dist.csv", space, grid)
    risk = cd.TotalCostDistribution.from_mass(t, grid.total_cost(), t * dist.g, grid.leakage)
    cd.write_total_cost(out / "total_cost.csv", t, risk.mass)
    cd.write_risk(out / "risk.csv", risk)
    return warnings, {"states": len(space), "scheme": args.scheme, "steps": steps, "r_max": r_max}


def cmd_simulate(args, _=None) -> tuple[int, dict]:
    classes, policy = load_model(args.model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    if args.t is None:
        raise ModelError("simulate requires --t")
    if args.reps < 1:
        raise ModelError(f"replications must be >= 1, got {args.reps}")
    costs = hw.solve_howard_exact(space, classes, dist.g, dist.r)
    prices = hw.shadow_prices(costs, space)
    # a quarter of the horizon is discarded for the stationary estimates
    # (occupancy, bills); cost accumulates from time zero
    config = SimConfig(horizon=args.t, replications=args.reps, seed=args.seed,
                       record_bills=True, warmup=args.t / 4.0)
    result = simulate(space, classes, config, prices=prices)
    out = Path(args.out)

    with open(out / "pi_mc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"q{k + 1}" for k in range(space.K)] + ["probability", "se"])
        for i, q in enumerate(space.states):
            w.writerow(list(q) + [_fmt(result.occupancy[i]), _fmt(result.occupancy_se[i])])
    r_max = int(result.total_cost_samples.max()) if len(result.total_cost_samples) else 0
    with open(out / "cost_dist_mc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"q{k + 1}" for k in range(space.K)] + ["r", "probability", "se"])
        cells: dict[tuple[int, int], int] = {}
        for st, r in zip(result.final_states, result.total_cost_samples):
            cells[(int(st), int(r))] = cells.get((int(st), int(r)), 0) + 1
        for (st, r), cnt in sorted(cells.items()):
            prob = cnt / args.reps
            se = np.sqrt(prob * (1.0 - prob) / args.reps)
            w.writerow([_fmt(args.t)] + list(space.states[st]) + [r, _fmt(prob), _fmt(se)])
    p, lo, hi = empirical_total_cost_hist(result.total_cost_samples, r_max)
    with open(out / "total_cost_mc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "r", "probability", "wilson_low", "wilson_high"])
        for r in range(r_max + 1):
            w.writerow([_fmt(args.t), r, _fmt(p[r]), _fmt(lo[r]), _fmt(hi[r])])
    with open(out / "risk_mc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mean", "se", "q95", "q99"])
        samples = np.sort(result.total_cost_samples)
        q95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
        q99 = samples[min(len(samples) - 1, int(0.99 * len(samples)))]
        w.writerow([_fmt(args.t), _fmt(result.mean_cost()), _fmt(result.mean_cost_se()), int(q95), int(q99)])
    with open(out / "bill_dist_mc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "price", "probability"])
        for k in range(space.K):
            if len(result.bill_samples[k]):
                for price, freq in empirical_bill_hist(result, k):
                    w.writerow([k + 1, _fmt(price), _fmt(freq)])

    # comparison report: analytic references for what the simulation measures.
    # Starting empty, the expected accumulated cost over [0, t] is
    # t*g - sum_q pi(q) v(q) up to an exponentially small mixing remainder,
    # with v anchored at the empty state.
    comparisons = []
    analytic_mean = args.t * dist.g - float(dist.pi @ costs.v)
    se = result.mean_cost_se()
    if np.isfinite(se) and se > 0:
        z = (result.mean_cost() - analytic_mean) / se
        comparisons.append(("mean_total_cost", result.mean_cost(), analytic_mean, se, z, abs(z) <= 3.0))
    tv = 0.5 * float(np.abs(result.occupancy - dist.pi).sum())
    comparisons.append(("occupancy_tv_distance", tv, 0.0, float("nan"), float("nan"), tv < 0.05))
    bills = hw.bill_distribution(prices, dist.pi, space)
    for k in range(space.K):
        # pooled ratio estimator over replications; the delta-method standard
        # error uses per-replication (sum, count) influence terms, which are
        # independent, while bills inside one replication are not
        if len(result.bill_samples[k]) < 100 or args.reps < 10:
            continue
        sums = np.bincount(result.bill_reps[k], weights=result.bill_samples[k], minlength=args.reps)
        counts = np.bincount(result.bill_reps[k], minlength=args.reps).astype(float)
        emp = float(sums.sum() / counts.sum())
        ana = bills.mean(k)
        bse = float(np.sqrt(np.sum((sums - emp * counts) ** 2)) / counts.sum())
        z = (emp - ana) / bse if bse > 0 else 0.0
        comparisons.append((f"mean_bill_class_{k + 1}", emp, ana, bse, z, abs(z) <= 3.0))
    with open(out / "comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity", "simulated", "analytic", "se", "z", "pass"])
        for name, sim, ana, s, z, ok in comparisons:
            w.writerow([name, _fmt(sim), _fmt(ana), _fmt(s), _fmt(z), int(ok)])
    failed = sum(1 for c in comparisons if not c[5])
    return failed, {"states": len(space), "replications": args.reps, "checks_failed": failed}


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--terms", type=int, default=6, help="series correction terms")
    p.set_defaults(fn=cmd_shadow)

    p = sub.add_parser("costdist", help="accumulated-cost distribution over a horizon")
    common(p)
    p.add_argument("--t", type=float, default=None, help="time horizon")
    p.add_argument("--scheme", default="closed", choices=_SCHEMES)
    p.add_argument("--steps", type=int, default=None, help="recursion steps (default: minimal valid)")
    p.add_argument("--rmax", type=int, default=None, help="cost truncation (default: automatic)")
    p.set_defaults(fn=cmd_costdist)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check")
    common(p)
    p.add_argument("--t", type=float, default=None, help="horizon per replication")
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
    except (ModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "command": args.command,
        "model": str(args.model),
        "out": str(out),
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in {"fn", "command", "model", "out"} and v is not None},
        "tool_version": __version__,
        "elapsed_seconds": round(time.time() - started, 6),
        "warnings": warnings,
        **meta,
    }
    with open(out / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 3 if warnings else 0


if __name__ == "__main__":
    sys.exit(main())
