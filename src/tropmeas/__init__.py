"""Finite-support max-plus (idempotent) probability measures.

Measures over finite metric spaces with max-plus weights, the truncated
bottleneck transport metric between them, the monad operations (Dirac
unit, pushforward, flatten), and randomized verification campaigns for
the metric and monad properties.  The same machinery applies at every
nesting level: a lifted space of measures is itself a finite metric
space, so measures of measures need no special cases.
"""

from . import defects
from .measures import (
    FunctionOnSpace,
    IdempotentMeasure,
    NormalizationError,
    SpaceMismatchError,
    dirac,
    evaluate,
    make_measure,
    measures_close,
    pointwise_max,
    pushforward,
    renormalize,
)
from .monad import (
    flatten,
    flatten_via_evaluation,
    lift_function,
    map_unit,
    sample_flatten_preimage,
    unit,
)
from .spaces import (
    FiniteMetricSpace,
    InvalidSpaceError,
    MetricViolation,
    index_of_measure,
    lift,
    lift_extend,
    validate,
)
from .transport import (
    bottleneck_distance,
    bottleneck_distance_bruteforce,
    cost,
    distance_to_dirac,
    distance_to_diracs,
    measure_distance,
    measure_distances,
    pattern_feasible,
)
from .verify import (
    CaseFailure,
    LemmaReport,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    gen_measure,
    gen_space,
    run_axioms,
    run_lemma1,
    run_lemma2,
    run_lemma3,
    run_oracle_equivalence,
)

__version__ = "0.1.0"
