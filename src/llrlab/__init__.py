"""llrlab: a numerical laboratory for two-class Gaussian score analysis.

Core pieces: Bayes log-likelihood-ratio scoring (bayesllr), multinormal
models and reproducible sampling (gaussmodel), exact score distributions in
2-D by change of variables and quadrature (llrdist), nonparametric and
binormal ROC/AUC estimation (rocauc), and a seeded Monte-Carlo
learning-curve harness (mcharness).  The ``llr-lab`` command line drives
everything and emits CSV tables and SVG plots.
"""

from .bayesllr import (
    CLASS1,
    CLASS2,
    TwoClassProblem,
    bayes_threshold,
    classify_scores,
    llr_scores,
)
from .errors import (
    ConditioningError,
    ConfigError,
    ContractError,
    DecompositionError,
    DomainError,
    InsufficientDataError,
    LlrLabError,
    SingularityError,
)
from .gaussmodel import (
    GaussianParams,
    SeededRng,
    estimate_params,
    mahalanobis_sq,
    mvn_sample,
)
from .llrdist import (
    DensityGrid,
    DiagonalizedProblem,
    density_roc,
    default_h_grid,
    histogram_vs_analytic,
    invert_llr,
    joint_density,
    marginal_density,
    score_moments,
    support_region,
    transform_problem,
)
from .mcharness import (
    CurveRow,
    CurveSummary,
    ExperimentConfig,
    TrialResult,
    asymptotic_auc,
    calibrate_c,
    learning_curve,
    run_trial,
)
from .rocauc import (
    BinormalFit,
    RocCurve,
    ScoreSet,
    auc_probability_identity_check,
    binormal_auc,
    empirical_auc,
    empirical_error_fractions,
    empirical_roc,
    normal_deviate_fit,
    trapezoid_auc,
)
from .smallmat import cholesky, std_normal_cdf_array, std_normal_quantile_array

__version__ = "0.1.0"
