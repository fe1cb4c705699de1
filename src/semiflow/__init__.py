"""Nonlinear semigroups from generating families by dyadic Chernoff iteration."""

# set before the submodules load: the CLI's manifest records it
__version__ = "0.1.0"

from .state_space import (
    Grid,
    GridFunction,
    NonFiniteValuesError,
    NormSpec,
    VectorState,
    grid_create,
    sample_function,
    distance,
    lipschitz_constant_estimate,
    write_csv,
)
from .chernoff import (
    DyadicPartition,
    GeneratingFamilyDescriptor,
    ConvergenceReport,
    dyadic_partition,
    apply_partition,
    chernoff_limit,
    chernoff_limits,
    semigroup_defect,
    discrete_semigroup_identity_residual,
    evolve_path,
)
from .families_linear import (
    HeatDriftParams,
    GbmParams,
    heat_drift_step,
    gbm_step,
    make_heat_family,
    make_identity_base_family,
)
from .families_nonlinear import (
    CostFunction,
    LambdaGrid,
    SigmaLambdaSet,
    PerturbationSpec,
    VectorField,
    quadratic_cost,
    indicator_cost,
    effective_lambda_radius,
    make_gexp_family,
    auto_lambda_grid,
    user_lambda_grid,
    make_g_expectation_family,
    make_robust_gbm_family,
    ode_euler_step,
    make_ode_family,
    vector_field_preset,
    perturbation_step,
    make_perturbation_family,
    perturbation_preset,
    telescoping_residual,
)
from .diagnostics import (
    LipschitzCertificate,
    AuditReport,
    GeneratorTable,
    generator_estimate,
    gen_condition_probe,
    lipschitz_certificate,
    symmetric_lipschitz_certificate,
    invariance_probe,
    alpha_beta_audit,
    partition_monotonicity_check,
)
from .cli import ExperimentSpec, parse_config, run_experiment, emit_plot
