"""Sharp identification intervals for a latent scalar known only to lie in
a random interval, under scalar restrictions on its selections (fixed mean,
median, moment, or quantile), with exhaustive oracles validating every
closed form."""

__version__ = "0.2.0"

from .errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    CouplingViolation,
    EmptyFile,
    EmptyInstance,
    InfeasibleMedian,
    InfeasibleMoment,
    InfeasibleQuantile,
    InfeasibleRestriction,
    InputError,
    InstanceTooLarge,
    InvalidPower,
    InvertedInterval,
    IoError,
    KappaInfeasible,
    MassOutOfRange,
    MOutOfRange,
    MOutsideMedianSpan,
    NegativeSupport,
    NoFeasibleSelection,
    NonpositiveWeight,
    ParseError,
    RestrictionViolated,
    SelBoundsError,
    SelectionMismatch,
)
from .laws import ChiSquare, Exponential, Law, Normal, Uniform, parse_law
from .model import (
    ClosedInterval,
    ComonotoneSpec,
    DiscreteInstance,
    Scenario,
    StepDistribution,
    discretize,
    marginal_law,
    normalize,
)
from .rearrange import (
    ConditionalLaw,
    WeightedSubset,
    conditional_quantile_integral,
    least_x_set,
    quantile_area,
    sorted_partial_sum,
)
from .benchmarks import (
    CapacityFunctionals,
    Selection,
    SelectionStats,
    aumann_interval,
    mean_selection,
    median_benchmark,
    quantile_attainability_range,
    quantile_selection,
    selection_stats,
)
from .median import (
    CostTerms,
    MedianPartition,
    extremal_selection,
    marginal_cost_terms,
    marginal_cost_terms_parametric,
    median_restricted_mean_interval,
    mixed_selection,
    partition,
    pivot_mean_interval,
)
from .events import (
    Calibration,
    DualEnvelope,
    GapProfile,
    TargetSet,
    calibrate_mean,
    dual_envelope,
    gap_profile,
    mean_restricted_prob_bounds,
    threshold_selection,
    unrestricted_prob_bounds,
)
from .extensions import (
    MomentRestriction,
    QuantileRestriction,
    mean_restricted_quantile_range,
    mixture_convexity_check,
    moment_restricted_mean_interval,
    power_image_interval,
    quantile_restricted_mean_interval,
    quantile_restriction_feasible,
)
from . import oracle
