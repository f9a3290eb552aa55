"""Exact q-series engine for residue-class partition biases.

Exact truncated power-series arithmetic on int or rational coefficients,
with every truncated q-product built by one kernel; brute-force partition
oracles; three independent bias-sequence engines with inequality/threshold
verifications; and the asymptotic constants and predictions attached to
the symmetric cases.
"""

from .asymptotics import (
    AsymptoticProfile,
    BiasConstant,
    PROFILE_DISTINCT,
    PROFILE_OVERPARTITIONS,
    PROFILE_PARTITIONS,
    bias_constant,
    boundary_check,
    boundary_main_term,
    convergence_report,
    digamma_diff,
    tauberian_predict_log,
)
from .biasspec import BiasSpec
from .checks import (
    NonnegReport,
    ScanReport,
    SweepReport,
    conjecture_scan,
    cross_check_matrix,
    distinct_dominance_sweep,
    dominance_sweep,
    doubling_orbit_witness,
    nonneg_expand,
    nonneg_suite,
    random_nonneg_params,
)
from .engine import (
    BiasReport,
    bias_series_dp,
    bias_series_gf,
    bias_series_symmetric,
    compare_bias,
    monotonicity_check,
    symmetric_distinct_pair,
    total_weighted_series,
)
from .identities import IdentityReport, verify_identity
from .oracle import oracle_bias, oracle_total
from .scalars import (
    InvalidParameterError,
    QbiasError,
    SingularSeriesError,
    parse_rational,
    rational,
)
from .series import (
    NumericValue,
    TruncatedSeries,
    evaluate_numeric,
    pochhammer_product,
)

__version__ = "0.1.0"
