"""Model-assisted survey estimation with penalized B-spline calibration.

Estimates nonlinear finite-population parameters (totals, means, ratios,
Gini index, quantiles, low-income proportion) from probability samples,
using a single reusable system of calibration weights per sample, with
influence-function linearization and design-based variance estimation.
"""

from .basis import (
    CovariateScale,
    CovariateSummary,
    KnotVector,
    SplineSpec,
    basis_matrix,
    basis_row,
    build_knots,
    normalize_covariate,
    penalty_matrix,
    truncated_power_matrix,
    truncated_power_row,
)
from .designs import (
    GivenProbabilities,
    Population,
    SampleDraw,
    Srswor,
    StratifiedSrswor,
    draw,
    draw_srswor,
    draw_stratified,
    replicate_seed,
)
from .functionals import (
    Ordering,
    WeightedMeasure,
    cdf_value,
    gini,
    implicit_solve,
    mean,
    poverty_rate,
    quantile,
    ratio,
    total,
)
from .linearize import (
    LinearizedVariables,
    ResidualFit,
    influence_oracle,
    linearized_gini,
    linearized_poverty_rate,
    linearized_ratio,
    linearized_total,
    residual_fit,
)
from .simulate import (
    Estimate,
    EstimatorSpec,
    MetricsTable,
    ParameterSpec,
    SampleData,
    SimulationPlan,
    SynthConfig,
    run_monte_carlo,
    synth_population,
    tv_proxy_distance,
)
from .variance import (
    VarianceEstimate,
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
    normal_quantile,
    population_asymptotic_variance,
    srswor_variance,
    stsi_variance,
)
from .weights import (
    SplineSystem,
    WeightSet,
    bspline_weights,
    fit_coefficients,
    greg_weights,
    ht_weights,
    post_weights,
    weighted_total,
)

__version__ = "0.1.0"
