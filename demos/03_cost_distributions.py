# Distributions of accumulated blocking cost: the operator's risk view.
# The mean cost over [0, t] is t*g, but the spread around it decides how
# much risk premium congestion pricing should carry.

import numpy as np

import losscost as lc

classes = (
    lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1, omega=1),
    lc.TrafficClass(lam=0.5, mu=1.0, bandwidth=2, omega=2),
)
space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
dist = lc.stationary(space, classes)
t = 5.0

# Closed form (simple charging scheme): per state a compound Poisson law of
# the blocked classes' charges, mixed over the stationary occupancy.
total = lc.total_cost_distribution(space, classes, t)
print(f"simple scheme at t={t}: mean {total.mean:.4f} (t*g = {t * dist.g:.4f})")
print(f"95% quantile {total.q95}, 99% quantile {total.q99}, "
      f"truncation leakage {total.leakage:.1e}")
print("P(cost = r) for small r:", np.round(total.mass[:8], 4))

# The discrete-time law after 2000 steps, fine enough that the step-size
# condition holds, approaches the continuous-time one at rate 1/steps.
steps = 2000
grid = lc.evolve_simple_costs(space, classes, t, steps, r_max=len(total.mass) - 1)
gap = float(np.max(np.abs(grid.total_cost() - total.mass)))
print(f"\ndiscrete law after {steps} steps vs continuous: max gap {gap:.2e}")

# The shadow scheme charges along the real trajectory, starting empty.  Its
# mean approaches t*g from below (the empty start spends a while cheap).
shadow = lc.evolve_shadow_costs(space, classes, t, steps, r_max=len(total.mass) - 1)
print(f"shadow scheme mean {shadow.mean_cost():.4f} vs t*g {t * dist.g:.4f} "
      f"(empty-start transient)")

# The product form is *not* the shadow scheme's law: neighbouring states
# with different admission sets break the joint detailed balance.  Exhibit
# the worst violation.
report = lc.detailed_balance_counterexample(space, classes, t=1.0)
print(f"\nbalance violation at state {space.states[report.state]}, "
      f"class {report.cls + 1}, cost level {report.r}: "
      f"|{report.lhs:.5f} - {report.rhs:.5f}| = {report.magnitude:.5f}")

# The separated cost recursion f(q+2) - (q+a) f(q+1) + rho (q+1) f(q) = 0
# has a closed-form solution via Gamma-product series; check it against
# plain forward iteration.
sol = lc.recursion_solve(rho=1.5, a=0.7, q_max=12)
fwd = [sol.f[0], sol.f[1]]
for q in range(10):
    fwd.append((q + 0.7) * fwd[q + 1] - 1.5 * (q + 1) * fwd[q])
print("\nclosed-form recursion solution vs forward iteration:")
print("  closed:", np.round(sol.f[:8], 6))
print("  forward:", np.round(fwd[:8], 6))
