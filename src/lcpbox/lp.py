"""LP feasibility engine with exact encodings of strict homogeneous systems.

Strictness is never handled by epsilon perturbation. Every strict system
this library needs is positively homogeneous, so

* ``x > 0``           becomes ``x >= e``,
* ``M x > 0``         becomes ``M x >= e``,
* ``M x <= 0, != 0``  becomes ``M x <= 0, (e^T M) x <= -1`` (one LP: a
  nonpositive vector is nonzero exactly when its entry sum is negative),

each after rescaling a hypothetical strict solution. The resulting weak
systems are decided by a phase-1 simplex with Bland's anti-cycling rule,
which makes verdicts and witnesses deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import LP_TOL

__all__ = [
    "LinearSystem",
    "FeasibilityResult",
    "LpEngineError",
    "solve_feasibility",
    "feasible_positive_strict",
]

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)

# Phase-1 pivots before the engine gives up with LpEngineError.
_MAX_PIVOTS = 100_000


class LpEngineError(RuntimeError):
    """Numerical breakdown of the feasibility engine (distinct from an
    infeasible verdict)."""


@dataclass(frozen=True)
class LinearSystem:
    """Rows ``a . x (<=|>=|==) b`` plus per-variable lower bounds.

    ``lower_bounds[j]`` is a float or None; None means the variable is
    free. All strict requirements must already be encoded by the caller.
    """

    coeffs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower_bounds: tuple[float | None, ...]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        b = np.asarray(self.rhs, dtype=float).ravel()
        object.__setattr__(self, "coeffs", A)
        object.__setattr__(self, "rhs", b)
        if A.shape[0] != b.shape[0]:
            raise ValueError("row count mismatch between coeffs and rhs")
        if len(self.relations) != A.shape[0]:
            raise ValueError("one relation per row required")
        if any(r not in _RELATIONS for r in self.relations):
            raise ValueError(f"relations must be one of {_RELATIONS}")
        if len(self.lower_bounds) != A.shape[1]:
            raise ValueError("one lower bound (or None) per variable required")

    def residuals(self, x) -> np.ndarray:
        """Signed violation per row (positive = violated)."""
        x = np.asarray(x, dtype=float)
        vals = self.coeffs @ x
        out = np.zeros(len(vals))
        for i, rel in enumerate(self.relations):
            if rel == LE:
                out[i] = vals[i] - self.rhs[i]
            elif rel == GE:
                out[i] = self.rhs[i] - vals[i]
            else:
                out[i] = abs(vals[i] - self.rhs[i])
        return out

    def satisfied_by(self, x, tol: float = LP_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        scale = 1.0 + float(np.max(np.abs(self.coeffs), initial=0.0)) * float(
            np.max(np.abs(x), initial=0.0)
        )
        if np.any(self.residuals(x) > tol * scale):
            return False
        for j, lb in enumerate(self.lower_bounds):
            if lb is not None and x[j] < lb - tol * (1.0 + abs(lb)):
                return False
        return True


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasibility verdict with a witness when feasible.

    ``strict_row`` records a strictly negative row of ``M x`` (its
    smallest entry) when :func:`feasible_positive_strict` was asked for
    "at least one strict".
    """

    feasible: bool
    witness: np.ndarray | None = None
    strict_row: int | None = None


def _bland_phase1(T: np.ndarray, basis: list[int], tol: float) -> None:
    """Run phase-1 simplex on tableau T in place (objective = last row).

    Bland's rule: entering column = lowest index with negative reduced
    cost; leaving row = smallest ratio, ties broken by smallest basis
    variable index. A candidate column whose positive entries all sit
    below the pivot tolerance is skipped (the phase-1 objective is bounded
    below by zero, so no genuine descent is lost); a candidate column with
    no positive entry at all signals numerical corruption.
    """
    m = T.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        obj = T[-1, :-1]
        candidates = np.nonzero(obj < -tol)[0]
        if candidates.size == 0:
            return
        leave = -1
        enter = -1
        for j in candidates:
            best_ratio = np.inf
            leave = -1
            for i in range(m):
                a = T[i, j]
                if a > tol:
                    ratio = T[i, -1] / a
                    if ratio < best_ratio - tol or (
                        abs(ratio - best_ratio) <= tol
                        and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave >= 0:
                enter = int(j)
                break
            if np.max(T[:m, j]) <= 0.0:
                raise LpEngineError(
                    "phase-1 column unbounded; numerical breakdown"
                )
            # only sub-tolerance positives: stalled column, try the next
        if enter < 0:
            return  # no column admits a usable pivot: stationary at tolerance
        piv = T[leave, enter]
        T[leave] /= piv
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= np.outer(col, T[leave])
        T[:, enter] = 0.0
        T[leave, enter] = 1.0
        basis[leave] = enter
    raise LpEngineError("phase-1 pivot cap exceeded")


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility of a linear system by phase-1 simplex.

    Variables with a finite lower bound are shifted to the nonnegative
    orthant; free variables are split. Artificial variables are introduced
    per row and their sum minimized under Bland's rule; the system is
    feasible iff the optimum is (numerically) zero, in which case the
    witness is read off the final basis.

    Raises
    ------
    LpEngineError
        on pivot-cap or numerical breakdown, distinct from infeasibility.
    """
    A = system.coeffs
    m, k = A.shape
    # Shift/split variables: x_j = lb_j + u_j (u_j >= 0) or x_j = u+ - u-.
    shift = np.zeros(k)
    col_map: list[tuple[int, int | None]] = []  # (plus column, minus column)
    cols: list[np.ndarray] = []
    for j, lb in enumerate(system.lower_bounds):
        if lb is None:
            col_map.append((len(cols), len(cols) + 1))
            cols.append(A[:, j])
            cols.append(-A[:, j])
        else:
            shift[j] = lb
            col_map.append((len(cols), None))
            cols.append(A[:, j])
    U = np.column_stack(cols) if cols else np.zeros((m, 0))
    b = system.rhs - A @ shift

    scale = max(1.0, float(np.max(np.abs(U), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    work_tol = LP_TOL * scale

    rows = []
    rels = []
    for i in range(m):
        if b[i] < 0:
            rows.append(-U[i])
            rels.append({LE: GE, GE: LE, EQ: EQ}[system.relations[i]])
        else:
            rows.append(U[i])
            rels.append(system.relations[i])
    b = np.abs(b)

    n_u = U.shape[1]
    slack_cols = []
    art_rows = []
    for i, rel in enumerate(rels):
        if rel == LE:
            slack_cols.append((i, 1.0))
        elif rel == GE:
            slack_cols.append((i, -1.0))
            art_rows.append(i)
        else:
            art_rows.append(i)

    n_s = len(slack_cols)
    n_a = len(art_rows)
    total = n_u + n_s + n_a
    T = np.zeros((m + 1, total + 1))
    T[:m, :n_u] = np.vstack(rows) if rows else np.zeros((0, n_u))
    for col, (i, sgn) in enumerate(slack_cols):
        T[i, n_u + col] = sgn
    basis = [-1] * m
    for col, (i, sgn) in enumerate(slack_cols):
        if sgn > 0:
            basis[i] = n_u + col
    for col, i in enumerate(art_rows):
        T[i, n_u + n_s + col] = 1.0
        basis[i] = n_u + n_s + col
    T[:m, -1] = b
    # Phase-1 objective: minimize the artificial sum, reduced by the basis.
    T[-1, n_u + n_s : n_u + n_s + n_a] = 1.0
    for i in art_rows:
        T[-1] -= T[i]

    _bland_phase1(T, basis, work_tol)

    art_sum = -T[-1, -1]
    if art_sum > 1e-8 * scale:
        return FeasibilityResult(False)

    u = np.zeros(total)
    for i, var in enumerate(basis):
        if var >= 0:
            u[var] = T[i, -1]
    x = shift.copy()
    for j, (plus, minus) in enumerate(col_map):
        x[j] += u[plus] - (u[minus] if minus is not None else 0.0)

    if not system.satisfied_by(x, tol=10 * LP_TOL):
        raise LpEngineError("phase-1 witness failed validation")
    return FeasibilityResult(True, witness=x)


def feasible_positive_strict(M, strict_all: bool) -> FeasibilityResult:
    """Decide the strict positive systems used by the matrix-class tests.

    With ``strict_all=True``: is there ``x > 0`` with ``M x > 0``?
    (Encoded exactly as ``M x >= e, x >= e`` by positive homogeneity.)

    With ``strict_all=False``: is there ``x > 0`` with ``M x <= 0`` and at
    least one row strictly negative? (Encoded as the single LP
    ``M x <= 0, (e^T M) x <= -1, x >= e``: a solution has some row at most
    ``-1/m``, and rescaling a strict solution meets the sum row. The
    returned ``strict_row`` is ``argmin(M x)``, and the witness is scaled
    up, if needed, so that this row is at most ``-1`` in the normalized
    scale ``M / max|M|``.)
    """
    A = np.atleast_2d(np.asarray(M, dtype=float))
    m, k = A.shape
    if A.size == 0:
        raise ValueError("empty matrix")
    # The systems are positively homogeneous in M, so normalize to unit
    # magnitude; this keeps the encodings well conditioned against the
    # unit right-hand sides regardless of the caller's scale. A witness
    # for the normalized system witnesses the original strict system.
    c = float(np.max(np.abs(A)))
    if c == 0.0:
        return FeasibilityResult(False)
    A = A / c
    bounds = (1.0,) * k
    if strict_all:
        # A row with no positive entry can never reach (Ax)_r >= 1.
        if np.min(np.max(A, axis=1)) <= 0.0:
            return FeasibilityResult(False)
        sys_all = LinearSystem(A, (GE,) * m, np.ones(m), bounds)
        return solve_feasibility(sys_all)
    # With x > 0, a row of nonnegative entries (not all zero) forces
    # (Ax)_r > 0, violating Ax <= 0. This also rejects a (nonzero) matrix
    # with no negative entry, which no row could make strictly negative.
    if np.any((np.min(A, axis=1) >= 0.0) & (np.max(A, axis=1) > 0.0)):
        return FeasibilityResult(False)
    coeffs = np.vstack([A, A.sum(axis=0)])
    rhs = np.concatenate([np.zeros(m), [-1.0]])
    res = solve_feasibility(LinearSystem(coeffs, (LE,) * (m + 1), rhs, bounds))
    if not res.feasible:
        return res
    x = res.witness
    vals = A @ x
    row = int(np.argmin(vals))
    if vals[row] > -1.0:
        # The sum row puts the smallest entry at or below -1/m; a factor of
        # at least 1 brings it to -1 and keeps x >= e.
        x = x / -vals[row]
    return FeasibilityResult(True, witness=x, strict_row=row)
