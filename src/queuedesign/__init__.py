"""Randomized experiments embedded in tiered priority-queue allocation."""

from .cohorts import (
    Cohort,
    EstimateReport,
    default_h_law,
    generate_bias_cohort,
    generate_cohort,
    outcome_variances,
    residual_variance,
    wald_report,
)
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from .counterfactual import ExactOracle, WorldTable, exact_oracle, mc_propensities
from .design import (
    DesignProblem,
    DesignSolution,
    ParetoPoint,
    default_kappa,
    endogenous_objective,
    exogenous_objective,
    feasible_utility_range,
    optimize_endogenous,
    optimize_exogenous,
    pareto_sweep,
)
from .policies import (
    assortative_policy,
    greedy_softmax_policy,
    quantile_assignment,
    rct_policy,
    switch_policy,
)
from .estimation import (
    BootstrapResult,
    LateDecomposition,
    NuisanceSet,
    dr_influence,
    dr_variance_terms,
    estimate_dr_ate,
    estimate_iv_ratio,
    estimate_pliv,
    fit_nuisances,
    instrument_information,
    late_decomposition,
    multiplier_bootstrap,
    oracle_nuisances,
    split_indices,
    variance_dr_formula,
    variance_pliv_formula,
)
from .mechanism import (
    AllocationTrace,
    QueueSpec,
    allocate,
    arrival_periods,
    arrival_ranks,
    make_budgets,
    rationed_shares,
    sample_queues,
    treated_mass_profile,
    validate_policy,
)
from .propensity import (
    AlphaVector,
    PropensityTable,
    alpha_from_target,
    alpha_vector,
    finite_instrument,
    instrument_variance,
    marginal_propensity,
)
