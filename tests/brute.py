"""Brute-force point deciders that cross-check the library at small n.

LP-system properties are re-decided by exhaustive vertex enumeration of the
encoded polyhedra, independent of the simplex engine; copositivity by a
Lipschitz-certified grid sweep over the unit simplex.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from lcpbox.linalg import symmetric_part
from lcpbox.lp import LinearSystem


def brute_feasibility(system: LinearSystem, tol: float = 1e-9) -> bool:
    """Decide LP feasibility by exhaustive basic-point enumeration.

    Every encoded polyhedron this library builds is pointed (each variable
    carries a finite lower bound or appears split), so if it is nonempty
    some vertex -- the intersection of dimension-many active constraint
    hyperplanes -- is feasible. All candidate active sets are enumerated;
    independent of the simplex engine.
    """
    A = system.coeffs
    m, k = A.shape
    planes = [(A[i], float(system.rhs[i])) for i in range(m)]
    for j, lb in enumerate(system.lower_bounds):
        if lb is not None:
            e = np.zeros(k)
            e[j] = 1.0
            planes.append((e, float(lb)))
    scale = 1.0 + max(float(np.max(np.abs(A), initial=0.0)),
                      float(np.max(np.abs(system.rhs), initial=0.0)))
    for combo in combinations(range(len(planes)), k):
        M = np.vstack([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) <= 1e-12 * scale**k:
            continue
        x = np.linalg.solve(M, rhs)
        if system.satisfied_by(x, tol=tol):
            return True
    return False


def brute_copositive(A, strict: bool = False, grid: int = 80) -> bool | None:
    """Grid decider for copositivity on the unit simplex.

    Returns True/False when the grid minimum is decisive under the
    Lipschitz bound of the quadratic form, None when the verdict falls
    inside the uncertainty band (caller should skip such cases). n <= 4.
    """
    S = symmetric_part(A)
    n = S.shape[0]
    if n > 4:
        raise ValueError("brute copositivity check supports n <= 4 only")
    pts = _simplex_grid(n, grid)
    vals = np.einsum("ij,jk,ik->i", pts, S, pts)
    m_hat = float(np.min(vals))
    # |f(x)-f(y)| <= 2 ||S||_2 ||x-y||_2 on the simplex; grid covering
    # radius is at most sqrt(2)/grid. The true minimum lies in
    # [m_hat - lip, m_hat].
    lip = 2.0 * float(np.linalg.norm(S, 2)) * np.sqrt(2.0) / grid
    if strict:
        if m_hat <= 0.0:
            return False
        if m_hat - lip > 0.0:
            return True
        return None
    if m_hat < 0.0:
        return False
    if m_hat - lip >= 0.0:
        return True
    return None


def _simplex_grid(n: int, grid: int) -> np.ndarray:
    """All rational points with denominator ``grid`` on the unit simplex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], grid, n)
    return np.array(out, dtype=float) / grid
