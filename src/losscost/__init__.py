"""Stationary behavior, shadow prices, and blocking-cost distributions for
multiservice loss systems under congestion pricing."""

__version__ = "0.1.0"

from .model import (
    AdmissionPolicy,
    FullSharing,
    ModelError,
    NumericsError,
    PerClassThreshold,
    StateSpace,
    StateSpaceSizeError,
    StationaryDistribution,
    TrafficClass,
    blocking_probabilities,
    build_generator,
    enumerate_states,
    sparse_generator,
    stationary,
    verify_consistency,
)
from .model_io import ModelFileError, load_model, parse_model
from .howard import (
    BillDistribution,
    RelativeCosts,
    SeriesResult,
    ShadowPriceTable,
    bill_distribution,
    equal_bandwidth_relative_costs,
    general_relative_costs,
    howard_residual,
    relative_cost_equal_bandwidth_approx,
    relative_cost_general_approx,
    relative_cost_symmetric,
    series_refine,
    shadow_prices,
    solve_howard_exact,
    symmetric_relative_costs,
)
from .costdist import (
    BalanceViolation,
    CostGrid,
    CostRecursionSolution,
    StepSizeError,
    TotalCostDistribution,
    closed_form_continuous,
    closed_form_discrete,
    detailed_balance_counterexample,
    evolve_shadow_costs,
    evolve_simple_costs,
    recursion_solve,
    total_cost_distribution,
)
from .simulate import (
    SimConfig,
    SimResult,
    empirical_bill_hist,
    empirical_quantile,
    empirical_total_cost_hist,
    simulate,
    simulate_simple_total_costs,
)
