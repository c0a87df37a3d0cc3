"""Exact computation of classical and weighted Hurwitz numbers, the
hypergeometric generating series that produce them, and the determinantal
identities those series satisfy.

Everything is arbitrary-precision rational arithmetic: every identity the
package verifies is an exact rational identity, and every check either
matches exactly or fails loudly.
"""

from .algebra import BetaSeries, format_rational, parse_rational
from .characters import (
    character,
    character_oracle,
    character_table,
    schur_in_powersums,
)
from .errors import (
    HurwitzTauError,
    ScaleGuardError,
    SingularInputError,
    SingularParameterError,
    SingularSeriesError,
    UsageError,
)
from .hurwitz import (
    ProfileTuple,
    hurwitz_number,
    hurwitz_oracle,
    riemann_hurwitz,
)
from .partitions import (
    Partition,
    as_partition,
    colength,
    contents,
    enumerate_partitions,
    format_partition,
    hook_product,
    identity_cycle_type,
    parse_partition,
    z_of,
)
from .tau_series import (
    TauTable,
    extract_H,
    r_lambda,
    rho,
    rho_formal,
    tau_double_table,
    tau_eval_at_matrix,
    tau_single_table,
)
from .weights import (
    WeightGen,
    eval_weight_gen,
    g_coeffs,
    quantum_weight_factor,
    rational_weight_factor,
    weight_factor,
    weight_factor_tilde,
    weighted_hurwitz,
    weighted_hurwitz_terms,
)
from .analytic import (
    DetRepValue,
    IdentityReport,
    PhiSeries,
    check_recursion,
    check_spectral,
    det_rep_calibration,
    euler_apply,
    exact_det,
    phi_k,
    tau_det_rep,
    tau_wronskian,
    vandermonde,
)

__version__ = "0.1.0"
