"""Matrix-class tests for a single real matrix.

These are the ground truth the robust (interval) checkers reduce to, and
the deciders the falsification oracle re-verifies counterexamples with.
Each test follows the defining system of its class directly; the
exponential ones enumerate index sets by increasing cardinality
(lexicographic within) so the first witness is deterministic.

The column-sufficiency and index (R0, R) systems take two bounds, and a
matrix passes itself twice; the strong routes pass a box's bounds to the
same builders, and the falsifier's screen its realization stacks.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionCapError
from .intervals import nonempty_subsets, disjoint_index_pairs, point_comparison_matrix
from .linalg import (
    is_positive_definite,
    is_positive_semidefinite,
    minor_sign,
    spectral_radius_nonneg,
    symmetric_part,
)
from .lp import EQ, GE, LE, LinearSystem, feasible_positive_strict, solve_feasibility
from .tolerances import CAP_POINT_ENUM, EIG_TOL, RHO_TOL

__all__ = [
    "PointProperty",
    "point_check",
    "is_Z",
    "is_S",
    "is_M",
    "is_M0",
    "is_H",
    "is_nonsingular",
    "is_copositive",
    "copositive_minimum",
    "is_semimonotone",
    "semimonotone_witness",
    "is_column_sufficient",
    "column_sufficiency_witness",
    "is_principally_nondegenerate",
    "is_P",
    "principal_minor_witness",
    "is_R0",
    "r0_witness",
    "is_R",
    "r_witness",
]


class PointProperty(Enum):
    """The matrix classes this library decides."""

    Z = "z"
    S = "s"
    M = "m"
    M0 = "m0"
    H = "h"
    NONSINGULAR = "nonsingular"
    COPOSITIVE = "copositive"
    STRICTLY_COPOSITIVE = "strictly-copositive"
    SEMIMONOTONE = "semimonotone"
    COLUMN_SUFFICIENT = "column-sufficient"
    PRINCIPALLY_NONDEGENERATE = "principally-nondegenerate"
    P = "p"
    R0 = "r0"
    R = "r"
    PD = "pd"
    PSD = "psd"

    @classmethod
    def from_token(cls, token) -> "PointProperty":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown property token {token!r}") from None


def _square(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"square matrix required, got shape {M.shape}")
    return M


def _ztol(A: np.ndarray) -> float:
    # scale-relative so classifications commute with positive rescaling
    return 1e-12 * float(np.abs(A).max(initial=0.0))


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise DimensionCapError(
            f"dimension {n} exceeds enumeration cap {cap}; pass a larger cap to force"
        )


# ---------------------------------------------------------------------------
# Sign-structure classes
# ---------------------------------------------------------------------------


def is_Z(A) -> bool:
    """Off-diagonal entries all nonpositive."""
    M = _square(A)
    off = M - np.diag(np.diag(M))
    return bool(np.all(off <= _ztol(M)))


def is_S(A) -> bool:
    """Exists x > 0 with A x > 0."""
    return feasible_positive_strict(_square(A), strict_all=True).feasible


def _m_margin(A: np.ndarray) -> float:
    """s - rho(N) for the canonical splitting A = s*I - N, s = max diagonal.

    Positive margin means M-matrix, nonnegative margin (to tolerance)
    means M0. Assumes the Z test already passed."""
    M = _square(A)
    s = float(np.max(np.diag(M)))
    N = s * np.eye(M.shape[0]) - M
    N[N < 0] = 0.0  # roundoff: off-diagonals are >= -ztol after the Z test
    return s - spectral_radius_nonneg(N)


def _m_tol(A: np.ndarray) -> float:
    # the margin carries the matrix's scale; the M property does not
    return RHO_TOL * float(np.max(np.abs(A), initial=0.0))


def is_M(A) -> bool:
    """Z-matrix expressible as s*I - N with N >= 0 and s > rho(N)."""
    M = _square(A)
    return is_Z(M) and _m_margin(M) > _m_tol(M)


def is_M0(A) -> bool:
    """Z-matrix expressible as s*I - N with N >= 0 and s >= rho(N)."""
    M = _square(A)
    return is_Z(M) and _m_margin(M) >= -_m_tol(M)


def is_H(A) -> bool:
    """Comparison matrix (|diag|, -|offdiag|) is an M-matrix."""
    return is_M(point_comparison_matrix(_square(A)))


def is_nonsingular(A) -> bool:
    """Tolerance-classified nonzero determinant (the same classification the
    principal-minor tests use for the full support)."""
    M = _square(A)
    return minor_sign(M, tuple(range(M.shape[0]))) != 0


def is_PD(A) -> bool:
    """Positive definiteness of the symmetric part."""
    return is_positive_definite(symmetric_part(_square(A)))


def is_PSD(A) -> bool:
    """Positive semidefiniteness of the symmetric part."""
    return is_positive_semidefinite(symmetric_part(_square(A)))


# ---------------------------------------------------------------------------
# Copositivity via exact face minimization
# ---------------------------------------------------------------------------


def copositive_minimum(A, cap: int = CAP_POINT_ENUM) -> tuple[float, np.ndarray]:
    """Minimum of x^T A x over the unit simplex, with a minimizer.

    The minimum is attained at a stationary point of some face: on the
    face with support S it satisfies A_SS x_S = mu * e, e^T x_S = 1, and
    the stationary value equals mu. Faces whose stationary system is
    singular are resolved by an LP over the affine stationary set (the
    value mu is constant on it). Vertices are the singleton faces.
    """
    S = symmetric_part(_square(A))
    n = S.shape[0]
    _check_cap(n, cap)
    slack = EIG_TOL * max(1.0, float(np.max(np.abs(S), initial=0.0)))  # x-space slack
    best_val = np.inf
    best_x = np.zeros(n)
    for support in nonempty_subsets(n):
        idx = list(support)
        k = len(idx)
        Ass = S[np.ix_(idx, idx)]
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = Ass
        K[:k, k] = -1.0
        K[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        if minor_sign(K, range(k + 1)) != 0:
            sol = np.linalg.solve(K, rhs)
            xs = sol[:k]
            if np.min(xs) < -slack:
                continue
            xs = np.clip(xs, 0.0, None)
            total = float(np.sum(xs))
            if total <= 0.0:
                continue
            xs = xs / total
        else:
            # Singular stationary system: look for a strictly positive
            # point in the affine stationary set (scale-invariant, so
            # x >= e encodes x > 0 exactly); mu enters as a free variable.
            # The value is recomputed from x, so normalizing Ass is safe.
            norm = max(float(np.max(np.abs(Ass))), 1e-300)
            coeffs = np.column_stack([Ass / norm, -np.ones(k)])
            system = LinearSystem(
                coeffs, (EQ,) * k, np.zeros(k), (1.0,) * k + (None,)
            )
            res = solve_feasibility(system)
            if not res.feasible:
                continue
            xs = res.witness[:k]
            xs = xs / float(np.sum(xs))
        x_full = np.zeros(n)
        x_full[idx] = xs
        value = float(x_full @ S @ x_full)
        if value < best_val:
            best_val = value
            best_x = x_full
    return best_val, best_x


def is_copositive(A, strict: bool = False, cap: int = CAP_POINT_ENUM) -> bool:
    """x^T A x >= 0 for all x >= 0 (strict: > 0 for all x >= 0, x != 0)."""
    S = symmetric_part(_square(A))
    slack = EIG_TOL * float(np.max(np.abs(S), initial=0.0))
    m_star, _ = copositive_minimum(S, cap=cap)
    return m_star > slack if strict else m_star >= -slack


# ---------------------------------------------------------------------------
# Semimonotonicity
# ---------------------------------------------------------------------------


def semimonotone_witness(A, cap: int = CAP_POINT_ENUM):
    """First (I, x) with A_II x < 0, x >= 0, or None if semimonotone."""
    M = _square(A)
    n = M.shape[0]
    _check_cap(n, cap)
    ztol = _ztol(M)
    for I in nonempty_subsets(n):
        if len(I) == 1:
            a = M[I[0], I[0]]
            if a < -ztol:
                return I, np.array([1.0 / -a])
            continue
        idx = list(I)
        sub = M[np.ix_(idx, idx)]
        # A row without a negative entry keeps (A_II x)_r >= 0 for x >= 0.
        if np.max(np.min(sub, axis=1)) >= 0.0:
            continue
        k = len(idx)
        # homogeneous in A: normalize for conditioning against the unit rhs
        system = LinearSystem(sub / np.max(np.abs(sub)), (LE,) * k,
                              -np.ones(k), (0.0,) * k)
        res = solve_feasibility(system)
        if res.feasible:
            return I, res.witness
    return None


def is_semimonotone(A, cap: int = CAP_POINT_ENUM) -> bool:
    """No nonempty principal block admits A_II x < 0 with x >= 0."""
    return semimonotone_witness(A, cap=cap) is None


# ---------------------------------------------------------------------------
# Column sufficiency
# ---------------------------------------------------------------------------


def _signed_block(lower: np.ndarray, upper: np.ndarray, I, J) -> np.ndarray:
    """[[lower_II, -upper_IJ], [-upper_JI, lower_JJ]] in the variable order
    I then J, for one matrix or each matrix of a (V, n, n) stack. ``take``
    returns C-contiguous blocks; a chained fancy gather does not, and the
    LP's row sums then round differently."""
    idx = list(I) + list(J)
    block = lower.take(idx, axis=-2).take(idx, axis=-1)
    if J:
        k = len(I)
        up = upper.take(idx, axis=-2).take(idx, axis=-1)
        block[..., :k, k:] = -up[..., :k, k:]
        block[..., k:, :k] = -up[..., k:, :k]
    return block


def _signed_block_witness(lower: np.ndarray, upper: np.ndarray):
    """First (I, J, x, strict_row) whose signed block of the two bounds
    maps some x > 0 to a nonzero nonpositive vector, else None. Pairs are
    enumerated up to the (I,J) <-> (J,I) block symmetry; a 1x1 block is
    decided by its entry against the zero tolerance of both bounds."""
    ztol = max(_ztol(lower), _ztol(upper))
    for I, J in disjoint_index_pairs(lower.shape[0]):
        if len(I) + len(J) == 1:
            if lower[I[0], I[0]] < -ztol:
                return I, J, np.array([1.0]), 0
            continue
        res = feasible_positive_strict(_signed_block(lower, upper, I, J),
                                       strict_all=False)
        if res.feasible:
            return I, J, res.witness, res.strict_row
    return None


def column_sufficiency_witness(A, cap: int = CAP_POINT_ENUM):
    """First (I, J, x, strict_row) violating column sufficiency, else None:
    :func:`_signed_block_witness` with both bounds equal to A."""
    M = _square(A)
    _check_cap(M.shape[0], cap)
    return _signed_block_witness(M, M)


def is_column_sufficient(A, cap: int = CAP_POINT_ENUM) -> bool:
    return column_sufficiency_witness(A, cap=cap) is None


# ---------------------------------------------------------------------------
# Principal minors: nondegeneracy and the P property
# ---------------------------------------------------------------------------


def principal_minor_witness(A, require_positive: bool,
                            cap: int = CAP_POINT_ENUM):
    """First index set whose principal minor is zero (or nonpositive when
    ``require_positive``), else None."""
    M = _square(A)
    n = M.shape[0]
    _check_cap(n, cap)
    for I in nonempty_subsets(n):
        sign = minor_sign(M, I)
        if sign == 0 or (require_positive and sign < 0):
            return I, sign
    return None


def is_principally_nondegenerate(A, cap: int = CAP_POINT_ENUM) -> bool:
    """All principal minors nonzero."""
    return principal_minor_witness(A, False, cap) is None


def is_P(A, cap: int = CAP_POINT_ENUM) -> bool:
    """All principal minors positive."""
    return principal_minor_witness(A, True, cap) is None


# ---------------------------------------------------------------------------
# R0 and R
# ---------------------------------------------------------------------------


def _index_system(lower: np.ndarray, upper: np.ndarray, I, J,
                  with_t: bool) -> tuple[LinearSystem, float]:
    """x >= e with lower_II x + e t <= 0, upper_II x + e t >= 0 and
    lower_JI x + e t >= 0, the x columns scaled by their max |entry|, which
    is returned too. Without ``with_t`` the t column is left out (R0). A
    single matrix passes itself as both bounds, and the two block rows
    then state A_II x + e t = 0."""
    idx = list(I)
    k = len(idx)
    blocks = [lower[np.ix_(idx, idx)], upper[np.ix_(idx, idx)]]
    rels = [LE] * k + [GE] * k
    if J:
        blocks.append(lower[np.ix_(J, idx)])
        rels += [GE] * len(J)
    stacked = np.vstack(blocks)
    norm = float(np.max(np.abs(stacked))) or 1.0
    coeffs = stacked / norm  # homogeneous in x, unit-scale it
    bounds = (1.0,) * k
    if with_t:
        coeffs = np.hstack([coeffs, np.ones((coeffs.shape[0], 1))])
        bounds += (0.0,)
    return LinearSystem(coeffs, tuple(rels), np.zeros(coeffs.shape[0]), bounds), norm


def _index_witness(A, with_t: bool, cap: int):
    """First (I, x, t) with A_II x + e t = 0, A_JI x + e t >= 0, x > 0 and
    t >= 0 (R, ``with_t``), or with t = 0 (R0), else None."""
    M = _square(A)
    n = M.shape[0]
    _check_cap(n, cap)
    ztol = _ztol(M)
    for I in nonempty_subsets(n):
        J = [j for j in range(n) if j not in I]
        idx = list(I)
        k = len(idx)
        if k == 1:
            a = M[I[0], I[0]]
            # R takes t = -a; R0 needs a zero entry.
            shift = a if with_t else 0.0
            if ((a <= ztol if with_t else abs(a) <= ztol)
                    and (not J or np.min(M[J, I[0]] - shift) >= -ztol)):
                return I, np.array([1.0]), max(0.0, -float(shift))
            continue
        if minor_sign(M, I) != 0:
            # A_II x = 0 with x > 0 needs a singular block, so R0 skips it.
            # For R, t = 0 would force x = 0, so t > 0 and x = -t * w with
            # w = A_II^{-1} e; feasibility is closed form. The row
            # comparisons carry the same slack the LP rows would.
            if not with_t:
                continue
            w = np.linalg.solve(M[np.ix_(idx, idx)], np.ones(k))
            if np.max(w) < 0.0 and (
                not J or np.max(M[np.ix_(J, idx)] @ w) <= 1.0 + 1e-9
            ):
                t_val = float(np.max(1.0 / -w))
                return I, -t_val * w, t_val
            continue
        system, norm = _index_system(M, M, I, J, with_t)
        res = solve_feasibility(system)
        if res.feasible:
            # t was solved against A/norm; undo the scaling
            t_val = float(res.witness[k]) * norm if with_t else 0.0
            return I, res.witness[:k], t_val
    return None


def r0_witness(A, cap: int = CAP_POINT_ENUM):
    """First (I, x) with A_II x = 0, A_JI x >= 0, x > 0, else None."""
    hit = _index_witness(A, False, cap)
    return None if hit is None else hit[:2]


def is_R0(A, cap: int = CAP_POINT_ENUM) -> bool:
    """The complementarity problem with q = 0 has only the zero solution."""
    return r0_witness(A, cap=cap) is None


def r_witness(A, cap: int = CAP_POINT_ENUM):
    """First (I, x, t) with A_II x + e t = 0, A_JI x + e t >= 0, x > 0,
    t >= 0, else None."""
    return _index_witness(A, True, cap)


def is_R(A, cap: int = CAP_POINT_ENUM) -> bool:
    """The complementarity problem is solvable for every right-hand side."""
    return r_witness(A, cap=cap) is None


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_CHECKS = {
    PointProperty.Z: is_Z,
    PointProperty.S: is_S,
    PointProperty.M: is_M,
    PointProperty.M0: is_M0,
    PointProperty.H: is_H,
    PointProperty.NONSINGULAR: is_nonsingular,
    PointProperty.COPOSITIVE: lambda A: is_copositive(A, strict=False),
    PointProperty.STRICTLY_COPOSITIVE: lambda A: is_copositive(A, strict=True),
    PointProperty.SEMIMONOTONE: is_semimonotone,
    PointProperty.COLUMN_SUFFICIENT: is_column_sufficient,
    PointProperty.PRINCIPALLY_NONDEGENERATE: is_principally_nondegenerate,
    PointProperty.P: is_P,
    PointProperty.R0: is_R0,
    PointProperty.R: is_R,
    PointProperty.PD: is_PD,
    PointProperty.PSD: is_PSD,
}


def point_check(A, prop) -> bool:
    """Decide a matrix class for a single real matrix by its token or
    :class:`PointProperty` member."""
    return _CHECKS[PointProperty.from_token(prop)](A)
