"""lcpbox: robust matrix-class certification for interval matrices in
linear complementarity problems.

The library decides whether matrix classes relevant to complementarity
problems (S, Z, M, H, positive (semi)definite, copositive, semimonotone,
column sufficient, principally nondegenerate, R0, R) hold for *every*
matrix inside an entrywise interval box, using exact finite
characterizations with polynomial fast paths, an independent sampling
falsifier, and a small complementarity solver to exercise the downstream
meaning of the classes.
"""

from .errors import (
    CertificateVerificationError,
    DimensionCapError,
    FastPathUnavailableError,
)
from .intervals import (
    IntervalMatrix,
    comparison_matrix,
    degenerate,
    from_bounds,
    from_midpoint_radius,
    principal_subbox,
    signed_vertex,
)
from .lcp import (
    LcpEnumeration,
    LcpInstance,
    LcpSolution,
    QpInstance,
    enumerate_lcp_solutions,
    qp_to_interval_lcp,
    qp_to_lcp,
    solve_lcp_enumerate,
)
from .linalg import (
    inverse_nonnegative,
    is_irreducible,
    is_positive_definite,
    is_positive_semidefinite,
    spectral_radius_nonneg,
)
from .lp import (
    FeasibilityResult,
    LinearSystem,
    LpEngineError,
    feasible_positive_strict,
    solve_feasibility,
)
from .oracle import ConsistencyReport, OracleOutcome, cross_validate, falsify
from .pointclasses import (
    PointProperty,
    is_M,
    is_M0,
    is_H,
    is_P,
    is_R,
    is_R0,
    is_S,
    is_Z,
    is_column_sufficient,
    is_copositive,
    is_principally_nondegenerate,
    is_semimonotone,
    point_check,
)
from .io import ParseError, parse_matrix_file
from .report import Report, report_from_json, report_to_dict, report_to_json, run_checks
from .strong import (
    ALL_STRONG_PROPERTIES,
    DEFAULT_CHECK_PROPERTIES,
    CheckConfig,
    PropertyVerdict,
    check_all,
    check_property,
    strong_column_sufficient,
    strong_copositive,
    strong_h,
    strong_m,
    strong_nonsingular,
    strong_pd,
    strong_principally_nondegenerate,
    strong_psd,
    strong_r,
    strong_r0,
    strong_s,
    strong_semimonotone,
    strong_z,
    verify_certificate,
)

__version__ = "0.1.0"
