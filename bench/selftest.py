"""Self-tests of the benchmark's oracles and span arithmetic.

Run from the repository root::

    python3 bench/selftest.py

The oracles are compared with losscost on small models, where the program's
own test suite vouches for it; the self-time arithmetic is checked on a
synthetic span tree.  Exits non-zero on the first failure.
"""

import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import losscost as lc  # noqa: E402
import losscost.cli  # noqa: E402,F401  (the tracer wraps cli's bindings too)
import oracles  # noqa: E402
import spans  # noqa: E402


def expect(ok, what):
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def random_models(rng, count):
    for _ in range(count):
        K = rng.randint(1, 3)
        lam = [rng.uniform(0.2, 4.0) for _ in range(K)]
        mu = [rng.uniform(0.5, 2.0) for _ in range(K)]
        omega = [rng.randint(1, 3) for _ in range(K)]
        if rng.random() < 0.5:
            bw = [rng.randint(1, 3) for _ in range(K)]
            yield lam, mu, bw, omega, rng.randint(3, 12), None
        else:
            yield lam, mu, [1] * K, omega, None, [rng.randint(1, 6) for _ in range(K)]


def program(lam, mu, bw, omega, capacity, thresholds):
    classes = tuple(lc.TrafficClass(lam=l, mu=m, bandwidth=b, omega=w)
                    for l, m, b, w in zip(lam, mu, bw, omega))
    policy = lc.FullSharing(capacity) if thresholds is None else lc.PerClassThreshold(tuple(thresholds))
    space = lc.enumerate_states(classes, policy)
    return classes, space, lc.stationary(space, classes)


def test_blocking_oracles():
    rng = random.Random(7)
    worst = 0.0
    counts_ok = True
    for lam, mu, bw, omega, cap, thr in random_models(rng, 40):
        _, space, dist = program(lam, mu, bw, omega, cap, thr)
        loads = [l / m for l, m in zip(lam, mu)]
        if thr is None:
            want = oracles.full_sharing_blocking(loads, bw, cap)
            count = oracles.full_sharing_state_count(bw, cap)
        else:
            want = [oracles.erlang_b(r, t) for r, t in zip(loads, thr)]
            count = math.prod(t + 1 for t in thr)
        got = lc.blocking_probabilities(space, dist.pi)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(got, 1e-300))))
        counts_ok &= len(space) == count
    expect(counts_ok, "state counts match enumerate_states")
    expect(worst < 1e-10, f"Kaufman-Roberts / Erlang B match blocking_probabilities (rel {worst:.1e})")


def test_reference_model():
    lam, mu, bw, omega, cap = [1.0, 0.5, 0.7], [1.0, 1.2, 0.8], [1, 2, 3], [1, 2, 3], 8
    classes, space, dist = program(lam, mu, bw, omega, cap, None)
    ref = oracles.Reference(lam, mu, bw, omega, capacity=cap)
    order = [ref.index[q] for q in space.states]
    expect(abs(ref.g - dist.g) < 1e-12, "reference g matches stationary().g")
    v = lc.solve_howard_exact(space, classes, dist.g, dist.r).v
    expect(np.max(np.abs(ref.relative_costs()[order] - v)) < 1e-9,
           "reference relative costs match solve_howard_exact")
    t = 2.0
    cells = ref.closed_cells(t, 20)[order]
    prog = np.array([[lc.closed_form_continuous(space, classes, t, i, r, dist=dist)
                      for r in range(21)] for i in range(len(space))])
    expect(np.max(np.abs(cells - prog)) < 1e-13, "Panjer cells match closed_form_continuous")
    # r_max far past the mass: with leakage the program's marginal drifts
    # and its coupling term moves mass between states
    steps = 60
    total = ref.simple_discrete_total(t, steps, 60)
    grid = lc.evolve_simple_costs(space, classes, t, steps, 60, warn=False)
    expect(np.max(np.abs(total - grid.total_cost())) < 1e-12,
           "compound binomial law matches evolve_simple_costs")
    shadow = lc.evolve_shadow_costs(space, classes, t, steps, 60, warn=False)
    expect(abs(ref.discrete_mean_from_empty(t, steps) - shadow.mean_cost()) < 1e-10,
           "step-chain mean matches evolve_shadow_costs")
    long_t = 60.0
    want = long_t * dist.g - float(dist.pi @ v)
    expect(abs(ref.expected_cost_from_empty(long_t) - want) < 1e-8 * want,
           "expected cost from empty tends to t g - pi.v")


def test_symmetric_oracle():
    lam, mu, cap = [1.2, 0.7, 2.0], 1.5, 9
    classes, space, dist = program(lam, [mu] * 3, [1] * 3, [1, 2, 1], cap, None)
    v_n = oracles.symmetric_relative_costs(sum(lam), mu, cap, dist.g)
    got = lc.symmetric_relative_costs(space, classes, dist.g).v
    want = np.array([v_n[sum(q)] for q in space.states])
    expect(np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want))),
           "birth-death relative costs match symmetric_relative_costs")


def test_self_times():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 5) and
    # [8, 12] clipped to the root's end (covers 2); grandchild [4, 5] in [2, 6]
    tree = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 3.0, 0, 0), ("b", 2.0, 6.0, 0, 0),
            ("c", 4.0, 5.0, 2, 0), ("d", 8.0, 12.0, 0, 0), ("other", 20.0, 21.0, -1, 1)]
    got = spans.self_times(tree)
    want = [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0, 1.0]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)), f"self times {got}")


def test_tracer_sees_by_name_imports():
    from losscost import cli
    import losscost.howard as hw

    original = lc.model.enumerate_states
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(cli.enumerate_states is not original and cli.enumerate_states.__wrapped__ is original,
               "cli's by-name binding is wrapped")
        expect(hw.build_generator.__wrapped__ is lc.model.build_generator.__wrapped__,
               "howard's by-name binding wraps the same function")
        classes, space, dist = program([1.0], [1.0], [1], [1], 3, None)
        hw.solve_howard_exact(space, classes, dist.g, dist.r)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    expect(names.count("model.build_generator") == 1 and "howard.solve_howard_exact" in names,
           f"spans recorded: {names}")
    expect(tracer.spans[names.index("model.build_generator")][3] ==
           names.index("howard.solve_howard_exact"), "generator span's parent is the solve")
    expect(not hasattr(lc.model.enumerate_states, "__wrapped__"), "uninstall restores functions")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("all self-tests passed")
