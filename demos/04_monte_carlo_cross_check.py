# Discrete-event simulation as an independent oracle for every analytic
# quantity: occupancy, cost rate, bills, and the total-cost law.

import numpy as np
import scipy.stats

import losscost as lc

classes = (
    lc.TrafficClass(lam=1.0, mu=1.0, bandwidth=1, omega=1),
    lc.TrafficClass(lam=0.5, mu=1.0, bandwidth=2, omega=2),
)
space = lc.enumerate_states(classes, lc.FullSharing(capacity=4))
dist = lc.stationary(space, classes)
costs = lc.solve_howard_exact(space, classes, dist.g, dist.r)
prices = lc.shadow_prices(costs, space)

# One long run with warmup for the stationary quantities.  The seed pins the
# whole experiment: replications use counter-based substreams, so the result
# is bit-identical no matter how the work is scheduled.
res = lc.simulate(
    space, classes,
    lc.SimConfig(horizon=20_000.0, replications=1, seed=42, warmup=100.0),
)
tv = 0.5 * np.abs(res.occupancy - dist.pi).sum()
print(f"occupancy total-variation distance to pi: {tv:.4f}")
print(f"cost rate {res.cost_rate:.4f} +- {res.cost_rate_se:.4f} "
      f"(batch means) vs g = {dist.g:.4f}")

# Many replications for distributional questions: the accumulated cost over
# [0, t] starting empty.  Its mean is t*g minus the transient pi.v.
t, reps = 40.0, 2000
many = lc.simulate(space, classes, lc.SimConfig(horizon=t, replications=reps, seed=7))
expected = t * dist.g - float(dist.pi @ costs.v)
print(f"\nmean cost over [0,{t:g}]: {many.mean_cost():.3f} "
      f"+- {many.mean_cost_se():.3f} vs analytic {expected:.3f}")

# Bills: arriving calls sample the stationary state (Poisson arrivals see
# time averages), so recorded prices reproduce the analytic bill law.
billed = lc.simulate(
    space, classes,
    lc.SimConfig(horizon=200.0, replications=50, seed=11, warmup=20.0),
    prices=prices,
)
bills = lc.bill_distribution(prices, dist.pi, space)
print("\nclass 1 bill atoms, empirical vs analytic:")
for price, freq in lc.empirical_bill_hist(billed, 0):
    ana = next((w for p, w in bills.per_class[0] if abs(p - price) < 1e-9), 0.0)
    print(f"  price {price:.4f}: {freq:.4f} vs {ana:.4f}")

# The simple charging scheme has a closed-form total-cost law; its direct
# sampler (stationary state + frozen Poisson charges) should agree to
# chi-square precision.
samples = lc.simulate_simple_total_costs(space, classes, t=5.0, replications=100_000, seed=3)
ref = lc.total_cost_distribution(space, classes, t=5.0)
counts = np.bincount(np.clip(samples, 0, len(ref.mass) - 1), minlength=len(ref.mass))
expectedc = ref.mass * len(samples)
keep = expectedc >= 5
obs = np.append(counts[keep], counts[~keep].sum())
exp = np.append(expectedc[keep], expectedc[~keep].sum())
exp *= obs.sum() / exp.sum()
print(f"\nchi-square vs closed-form total-cost law: "
      f"p = {scipy.stats.chisquare(obs, exp).pvalue:.3f}")
