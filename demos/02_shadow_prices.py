# Relative costs and shadow prices: what admitting one more call costs in
# expected future blocking, and what a user would be billed for it.

import numpy as np

import losscost as lc
from losscost import howard as hw

classes = (
    lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1, omega=1),
    lc.TrafficClass(lam=0.5, mu=1.0, bandwidth=2, omega=2),
)
space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
dist = lc.stationary(space, classes)

# Exact relative costs: anchored linear solve of the policy-evaluation
# equation.  v(q) is the expected excess future cost of starting at q.
costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
print("state, relative cost v, per-class shadow prices")
prices = lc.shadow_prices(costs, space)
for i, q in enumerate(space.states):
    row = ", ".join(
        f"p{k + 1}={prices.p[i, k]:.4f}" for k in range(space.K)
        if not np.isnan(prices.p[i, k])
    )
    print(f"  {q}: v={costs.v[i]: .4f}  {row}")
print(f"residual of the balance equation: {costs.residual:.2e}")

# A user arriving at random samples the stationary state, so the bill is a
# discrete distribution over the admitting states' prices.
bills = lc.bill_distribution(prices, dist.pi, space)
for k, atoms in enumerate(bills.per_class):
    print(f"\nclass {k + 1} bill: mean {bills.mean(k):.4f}")
    for price, prob in atoms:
        print(f"   price {price:.4f} with probability {prob:.4f}")

# Closed-form routes.  With equal bandwidths and service rates the relative
# cost depends only on the total number of calls and is available exactly;
# for heterogeneous classes there are two cheap approximations whose quality
# is *measured*, not assumed: report their equation residuals.
sym_classes = tuple(lc.TrafficClass(lam, 1.0, 1, 1) for lam in (1.0, 0.5))
sym_space = lc.enumerate_states(sym_classes, lc.FullSharing(capacity=4))
sym_dist = lc.stationary(sym_space, sym_classes)
closed = lc.symmetric_relative_costs(sym_space, sym_classes, sym_dist.g)
exact = lc.solve_howard_exact(sym_space, sym_classes, sym_dist.g, sym_dist.r)
print("\nsymmetric closed form vs exact solve:",
      float(np.max(np.abs(closed.v - exact.v))))

v_approx = lc.general_relative_costs(space, classes, dist.g).v
res_approx = hw.howard_residual(space, classes, v_approx, dist.g, dist.r)
res_zero = hw.howard_residual(space, classes, np.zeros(len(space)), dist.g, dist.r)
print(f"bandwidth-scaled approximation residual {res_approx:.3f} "
      f"(the all-zero guess scores {res_zero:.3f})")

# The series completion refines a starting approximation term by term, each
# term one exact solve per class along that class's lines, and reports its
# residual trajectory; it is an approximation ladder, so when it stops short
# of the tolerance the flags say so and the exact solver is the tool to use.
series = lc.series_refine(space, classes, dist.g, dist.r, n_terms=6)
print("\nseries completion residuals:", [f"{r:.3f}" for r in series.residual_history])
print("converged:", series.converged, "|", series.message)
