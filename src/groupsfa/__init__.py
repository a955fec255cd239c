"""Panel stochastic frontier estimation with latent group structures.

The pipeline estimates time-varying frontier coefficients firm by firm
with a cosine sieve, clusters firms by Ward-linkage agglomeration, selects
the number of groups with an information criterion, re-estimates pooled
frontiers within groups, and fits the level/inefficiency distribution by
maximum likelihood, choosing between a single half-normal law and a
two-component mixture.
"""

from .basis import basis_matrix, coefficient_curves, design_matrix
from .dgp import DESIGNS, centering_constant, design_shape, generate
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
from .estimation import (
    FirmFits,
    GroupFit,
    WithinFactors,
    default_m,
    default_m_under,
    fit_all,
    fit_group,
    within_factors,
)
from .grouping import GroupAssignment, MergeHistory, hac_cluster
from .inefficiency import (
    DegenerateMixtureWarning,
    MixtureFit,
    UniqueFit,
    default_lambda_tilde,
    firm_intercepts,
    fit_mixture,
    fit_unique,
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
from .postestimation import ICReport, default_lambda, ic_value, select_K

__version__ = "0.1.0"
