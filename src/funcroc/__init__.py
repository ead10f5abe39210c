"""ROC-curve analysis of functional biomarkers.

Estimate discriminant indexes from two samples of curves, summarize their
discriminating power through empirical ROC/AUC/Youden statistics, compare
against closed-form binormal results, and reproduce simulation studies
with built-in Gaussian-process scenario generators.
"""

from .binormal import GaussianPair, auc_of_direction, binormal_roc
from .errors import (
    CurveParseError,
    DegenerateDirectionError,
    DegenerateOperatorError,
    FuncrocError,
    GridMismatchError,
    InsufficientSampleError,
    InvalidKernelError,
    NumericalDegeneracyError,
    RangeViolationError,
    SimulationDegeneracyError,
    SingularCovarianceError,
    SingularSystemError,
)
from .estimation import (
    CovarianceKernel,
    EigenSystem,
    choose_dimension,
    combine_covariances,
    eigendecompose,
    pooled_eigensystem,
    project_scores,
    sample_covariance,
    sample_mean,
)
from .grids import (
    Curve,
    FunctionalSample,
    Grid,
    Group,
    inner_product,
    make_uniform_grid,
    norm,
)
from .harness import (
    FITTERS,
    INDEX_NAMES,
    ReplicationResult,
    RunConfig,
    StudyReport,
    analyze,
    emit_report,
    evaluate,
    ingest_curves,
    run_replication,
    run_study,
)
from .indexes import (
    DiscriminantIndex,
    FitContext,
    IntegralIndex,
    LinearIndex,
    MaxIndex,
    MinIndex,
    QuadraticIndex,
    fit_mean_difference,
    fit_optimal_linear,
    fit_quadratic,
    index_scores,
    second_difference_penalty,
)
from .rocmetrics import (
    RocRows,
    RocSummary,
    ScoreSample,
    auc,
    default_p_grid,
    roc_curve,
    score_sample,
    summarize_sorted,
    youden,
)
from .simulation import (
    SCENARIO_NAMES,
    ProcessSpec,
    ScenarioSpec,
    generate_scenario,
    kernel_matrix,
    sample_gaussian,
    sine_eigenfunction,
)

__version__ = "0.1.0"
