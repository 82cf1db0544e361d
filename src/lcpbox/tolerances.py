"""Shared numeric tolerances.

All verdicts in this library are tolerance-classified so that repeated runs
on the same input are bit-for-bit reproducible. Pivot, eigenvalue and zero
tolerances (1e-12 * max|entry| over both bounds, no floor) are
scale-relative; spectral-radius threshold comparisons are absolute, and
the Perron root needs no tolerance.
"""

# The determinant zero rule (lcpbox.linalg.minor_sign): a k-by-k principal
# minor is zero when |det A_SS| <= PIVOT_TOL * k * prod_{i in S} max_{j in S}
# |a_ij|, a bound relative to the block's own rows, so positive row scaling
# cancels out of it. Cholesky pivots of is_positive_definite use it relative
# to max|entry|.
PIVOT_TOL = 1e-10

# Eigenvalue / semidefiniteness: lambda_min >= -EIG_TOL * ||M||_inf passes.
EIG_TOL = 1e-9

# Spectral-radius threshold comparisons (rho vs. 1) use an absolute margin.
RHO_TOL = 1e-9

# LP feasibility: row residuals of a witness must stay within this.
LP_TOL = 1e-9

# Complementarity solutions: residual / nonnegativity slack.
LCP_TOL = 1e-8

# Default enumeration caps (CheckConfig.cap / --cap replaces all of them).
CAP_POINT_ENUM = 16       # 2^n / 3^n subset enumerations on a real matrix
CAP_SIGN_VERTEX = 14      # 2^n sign-vertex enumerations on a box
CAP_INDEX_PAIRS = 10      # 3^n disjoint index-pair enumerations on a box
CAP_NONDEGENERATE = 8     # 5^n support/sign enumeration for nondegeneracy
