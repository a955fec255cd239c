"""Panel stochastic frontier estimation with latent group structures.

The pipeline estimates time-varying frontier coefficients firm by firm
with a cosine sieve, clusters firms by Ward-linkage agglomeration, selects
the number of groups with an information criterion, re-estimates pooled
frontiers within groups, and fits the level/inefficiency distribution by
maximum likelihood, choosing between a single half-normal law and a
two-component mixture.
"""

from ._kernels import log_norm_cdf
from .basis import basis_value, design_matrix, design_row, within_demean
from .dgp import DESIGNS, centering_constant, generate, sample_half_normal
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateICError,
    GroupSfaError,
    HessianError,
    InputError,
    NumericalError,
    RankDeficientError,
)
from .estimation import FirmEstimate, default_m, fit_all, fit_firm
from .grouping import (
    GroupAssignment,
    MergeHistory,
    classification_error,
    hac_cluster,
)
from .inefficiency import (
    DegenerateMixtureWarning,
    MixtureFit,
    UniqueFit,
    default_lambda_tilde,
    firm_intercepts,
    fit_mixture,
    fit_unique,
    loglik_mixture_firm,
    loglik_unique_firm,
    mle_standard_errors,
    step5_select,
)
from .montecarlo import (
    McConfig,
    MonteCarloReport,
    aggregate,
    run_monte_carlo,
    run_replication,
    sensitivity_sweep,
)
from .panel import PanelData, read_panel_csv, write_panel_csv
from .pipeline import EstimateResult, estimate_panel
from .postestimation import (
    GroupFit,
    ICReport,
    default_lambda,
    default_m_under,
    fit_group,
    frontier_eval,
    ic_value,
    select_K,
)

__version__ = "0.1.0"
