"""Sharp identification intervals for a latent scalar known only to lie in
a random interval, under scalar restrictions on its selections (fixed mean,
median, moment, or quantile), with exhaustive oracles validating every
closed form."""

__version__ = "0.3.0"

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
    SelBoundsError,
    SelectionMismatch,
)
from .laws import ChiSquare, Exponential, Law, Normal, Uniform, parse_law
from .model import (
    ClosedInterval,
    ComonotoneSpec,
    DiscreteInstance,
    StepDistribution,
    discretize,
    marginal_law,
    normalize,
)
from .rearrange import (
    ConditionalLaw,
    conditional_quantile_integral,
    least_x_set,
    quantile_area,
    sorted_partial_sum,
)
from .benchmarks import (
    Selection,
    aumann_interval,
    mean_selection,
    median_benchmark,
    quantile_attainability_range,
    quantile_selection,
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
    unrestricted_prob_bounds,
)
from .extensions import (
    MomentRestriction,
    QuantileRestriction,
    mean_restricted_quantile_range,
    moment_restricted_mean_interval,
    moment_selection,
    power_image_interval,
    quantile_restricted_mean_interval,
)
from . import oracle
