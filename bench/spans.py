"""Spans around losscost's public functions, recorded from outside the package.

Each traced function is replaced, at every module attribute that is bound to
it, by a wrapper that records a span (name, start, end, parent span, op id).
``cli``, ``costdist``, ``howard`` and ``simulate`` import several functions by
name, so wrapping only the defining module would miss those calls.  Spans
stay in memory; self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

# span name -> functions it covers, as (defining module, attribute)
SPANS = {
    "model_io.load_model": [("losscost.model_io", "load_model")],
    "model.enumerate_states": [("losscost.model", "enumerate_states")],
    "model.verify_consistency": [("losscost.model", "verify_consistency")],
    "model.stationary": [("losscost.model", "stationary")],
    "model.build_generator": [("losscost.model", "build_generator")],
    "howard.solve_howard_exact": [("losscost.howard", "solve_howard_exact")],
    "howard.howard_residual": [("losscost.howard", "howard_residual")],
    "howard.series_refine": [("losscost.howard", "series_refine")],
    "howard.approx": [
        ("losscost.howard", "symmetric_relative_costs"),
        ("losscost.howard", "relative_cost_equal_bandwidth_approx"),
        ("losscost.howard", "relative_cost_general_approx"),
    ],
    "howard.prices_bills": [
        ("losscost.howard", "shadow_prices"),
        ("losscost.howard", "bill_distribution"),
    ],
    "howard.write": [
        ("losscost.howard", "write_relative_costs"),
        ("losscost.howard", "write_shadow_prices"),
        ("losscost.howard", "write_bill_distribution"),
    ],
    "costdist.total_cost_distribution": [("losscost.costdist", "total_cost_distribution")],
    "costdist.closed_form_continuous": [("losscost.costdist", "closed_form_continuous")],
    "costdist.detailed_balance_counterexample": [
        ("losscost.costdist", "detailed_balance_counterexample")],
    "costdist.evolve_shadow_costs": [("losscost.costdist", "evolve_shadow_costs")],
    "costdist.evolve_simple_costs": [("losscost.costdist", "evolve_simple_costs")],
    "costdist.write": [
        ("losscost.costdist", "write_cost_grid"),
        ("losscost.costdist", "write_total_cost"),
        ("losscost.costdist", "write_risk"),
    ],
    "simulate.simulate": [("losscost.simulate", "simulate")],
    "simulate.simulate_simple_total_costs": [("losscost.simulate", "simulate_simple_total_costs")],
    "simulate.empirical": [
        ("losscost.simulate", "empirical_total_cost_hist"),
        ("losscost.simulate", "empirical_bill_hist"),
    ],
    "cli.main": [("losscost.cli", "main")],
}


def self_times(spans):
    """Self time of each span: duration minus the union of its children.

    ``spans`` is a list of (name, start, end, parent, op) with ``parent`` the
    index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _expected_event_rate(space, classes):
    """Stationary event rate sum_j lam_j + sum_j mu_j E[q_j], from the product
    form over the simulated space (computed, not counted)."""
    import numpy as np
    from scipy.special import gammaln

    occ = space.occupancy
    logw = sum(occ[:, j] * np.log(c.lam / c.mu) - gammaln(occ[:, j] + 1.0)
               for j, c in enumerate(classes))
    pi = np.exp(logw - logw.max())
    pi /= pi.sum()
    mu = np.array([c.mu for c in classes])
    return sum(c.lam for c in classes) + float(pi @ (occ * mu).sum(axis=1))


def _count(tracer, name, args, kwargs, result):
    """Work counts recorded at the span boundary, from arguments and result."""
    c = tracer.counts
    if name == "model.enumerate_states":
        c["model.enumerate_states.states"] += len(result)
    elif name == "model.build_generator":
        c["model.build_generator.bytes"] += result.nbytes
    elif name == "costdist.total_cost_distribution":
        c["costdist.total_cost_distribution.lattice"] += len(args[0]) * len(result.mass)
    elif name in ("costdist.evolve_shadow_costs", "costdist.evolve_simple_costs"):
        c["costdist.evolve.cell_steps"] += result.mass.size * result.steps
    elif name == "simulate.simulate":
        space, classes = args[0], tuple(args[1])
        config = _arg(args, kwargs, 2, "config")
        reps = config.replications
        c["simulate.sim_time"] += reps * config.horizon
        c["simulate.expected_events"] += reps * config.horizon * _expected_event_rate(space, classes)
        c["simulate.occupancy_bytes"] += (reps if reps > 1 else 1) * len(space) * 8
    elif name == "cli.main" and result == 3:
        c["cli.main.exit3"] += 1


class Tracer:
    """Installs span-recording wrappers into the loaded losscost modules."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.op = -1
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            _count(tracer, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "losscost" or key.startswith("losscost."))]
        for name, targets in SPANS.items():
            for modname, attr in targets:
                fn = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def layer_totals(self):
        """Per span name: (calls, total self seconds)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span, s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_s[span[0]] += s
        return calls, self_s

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
