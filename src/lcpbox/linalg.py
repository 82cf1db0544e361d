"""Dense numerical kernels: classified principal-minor signs, Perron
spectral radius, definiteness tests, irreducibility, inverse nonnegativity.

Everything operates on small dense matrices. Verdicts are tolerance
classified with deterministic, scale-relative thresholds (see
:mod:`lcpbox.tolerances`). Every determinant is classified by the one
zero rule of :func:`minor_sign` and its batched form. The Perron root is
one dense eigenvalue solve per strongly connected component, so it needs
no tolerance and scales with the matrix.
"""

from __future__ import annotations

import numpy as np

from .tolerances import EIG_TOL, PIVOT_TOL

__all__ = [
    "batch_det_signs",
    "batch_minor_signs",
    "spectral_radius_nonneg",
    "is_positive_definite",
    "is_positive_semidefinite",
    "is_irreducible",
    "inverse_nonnegative",
    "symmetric_part",
]


def symmetric_part(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    return (M + M.T) / 2.0


def _zero_bound(k: int, rows=()):
    """The zero rule's bound PIVOT_TOL * k * prod_i rows[i] for a k-by-k
    block with row maxima ``rows`` (scalars or arrays; unit rows when left
    out), multiplied in row order so scalar and batched bounds are
    bit-identical."""
    bound = PIVOT_TOL * k
    for m in rows:
        bound = bound * m
    return bound


def _closed_form_minor(e, idx, hi):
    """Determinant of the ``idx`` principal block for k <= 3 and its row
    maxima of |entry|, each entry read through ``e(r, c)`` and each
    pairwise maximum taken by ``hi``.

    Works on scalars (``hi=max``) and on stacked entry arrays
    (``hi=np.maximum``) alike with one operation order, which is what keeps
    the scalar and batched classifications bit-identical.
    """
    k = len(idx)
    if k == 1:
        d = e(idx[0], idx[0])
        return d, (abs(d),)
    if k == 2:
        i, j = idx
        a, b, c, f = e(i, i), e(i, j), e(j, i), e(j, j)
        return a * f - b * c, (hi(abs(a), abs(b)), hi(abs(c), abs(f)))
    i, j, l = idx
    ii, ij, il = e(i, i), e(i, j), e(i, l)
    ji, jj, jl = e(j, i), e(j, j), e(j, l)
    li, lj, ll = e(l, i), e(l, j), e(l, l)
    d = (
        ii * (jj * ll - jl * lj)
        - ij * (ji * ll - jl * li)
        + il * (ji * lj - jj * li)
    )
    rows = tuple(hi(hi(abs(x), abs(y)), abs(z))
                 for x, y, z in ((ii, ij, il), (ji, jj, jl), (li, lj, ll)))
    return d, rows


def minor_sign(M: np.ndarray, idx) -> int:
    """Classified sign of the ``idx`` principal minor of M: zero when
    |det M_SS| <= PIVOT_TOL * k * prod_{i in S} max_{j in S} |m_ij|.

    The library's one determinant zero rule. Hadamard's inequality keeps
    |det| at most the product of the row 2-norms, so the bound is relative
    to the block itself, and a positive row scaling cancels out of it.
    Closed-form determinants for blocks up to 3x3, numpy's LU determinant
    beyond, as in :func:`batch_minor_signs`.
    """
    k = len(idx)
    if k <= 3:
        d, rows = _closed_form_minor(lambda r, c: M[r, c], idx, max)
    else:
        sub = M[np.ix_(list(idx), list(idx))]
        d = np.linalg.det(sub)
        rows = np.max(np.abs(sub), axis=1)
    d = float(d)
    if abs(d) <= _zero_bound(k, rows):
        return 0
    return 1 if d > 0 else -1


def _stack_minor_signs(stack: np.ndarray, idx) -> np.ndarray:
    """:func:`minor_sign` of the ``idx`` principal minor of every matrix in
    ``stack`` (V, n, n): the same closed forms in the same operation order,
    the same determinant beyond, and the same row-order bound. Both batched
    entry points call this and not each other, so a profiler that wraps
    them by name counts each matrix once."""
    stack = np.asarray(stack, dtype=float)
    k = len(idx)
    if k <= 3:
        d, rows = _closed_form_minor(lambda r, c: stack[:, r, c], idx,
                                     np.maximum)
    else:
        if k == stack.shape[-1] and list(idx) == list(range(k)):
            sub = stack
        else:
            sub = stack[:, list(idx)][:, :, list(idx)]
        d = np.linalg.det(sub)
        rows = np.max(np.abs(sub), axis=2).T
    signs = np.where(d > 0, 1, -1)
    signs[np.abs(d) <= _zero_bound(k, rows)] = 0
    return signs


def batch_minor_signs(stack: np.ndarray, idx) -> np.ndarray:
    """Classified signs of the ``idx`` principal minor of every matrix in
    a stack of shape (V, n, n); element v equals ``minor_sign(stack[v],
    idx)`` exactly."""
    return _stack_minor_signs(stack, idx)


def batch_det_signs(stack: np.ndarray) -> np.ndarray:
    """Classified determinant signs of a stack of k-by-k matrices:
    ``batch_minor_signs(stack, range(k))``."""
    return _stack_minor_signs(stack, range(np.shape(stack)[-1]))


def _nonnegative_square(N, what: str) -> np.ndarray:
    A = np.asarray(N, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"{what} requires a square matrix")
    if np.any(A < 0):
        raise ValueError("matrix must be nonnegative entrywise")
    return A


def _strong_components(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a boolean adjacency matrix."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))))):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    mutual = reach & reach.T
    seen = np.zeros(n, dtype=bool)
    comps = []
    for i in range(n):
        if not seen[i]:
            members = list(np.nonzero(mutual[i])[0])
            for j in members:
                seen[j] = True
            comps.append([int(j) for j in members])
    return comps


def spectral_radius_nonneg(N) -> float:
    """Perron root of an entrywise nonnegative matrix.

    The largest Perron root over the strongly connected components of the
    matrix's digraph: a 1x1 component's root is its entry, a larger one's
    the largest real part of its block's eigenvalues. An irreducible
    block's Perron root is a simple eigenvalue (Perron-Frobenius), so the
    dense eigenvalue solve is accurate to rounding relative to the block,
    at any scale. The split keeps reducible inputs exact too: a defective
    multiple root of the whole matrix would lose about sqrt(eps).
    """
    A = _nonnegative_square(N, "spectral radius")
    best = 0.0
    for comp in _strong_components(A > 0.0):
        if len(comp) == 1:
            root = float(A[comp[0], comp[0]])
        else:
            root = float(np.max(np.linalg.eigvals(A[np.ix_(comp, comp)]).real))
        best = max(best, root)
    return best


def is_positive_definite(M) -> bool:
    """Strict positive definiteness of a symmetric matrix.

    Cholesky factorization succeeds with every pivot above
    PIVOT_TOL * max|entry|.
    """
    A = np.array(symmetric_part(M), dtype=float)
    n = A.shape[0]
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return False
    thresh = PIVOT_TOL * scale
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - np.dot(L[j, :j], L[j, :j])
        if d <= thresh:
            return False
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return True


def is_positive_semidefinite(M) -> bool:
    """Positive semidefiniteness of a symmetric matrix via eigenvalues:
    lambda_min >= -EIG_TOL * ||M||_inf."""
    A = symmetric_part(M)
    if A.size == 0:
        return True
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    if norm == 0.0:
        return True
    lam_min = float(np.min(np.linalg.eigvalsh(A)))
    return lam_min >= -EIG_TOL * norm


def is_irreducible(N) -> bool:
    """Irreducibility of a nonnegative matrix: its digraph on nonzero
    entries is one strongly connected component."""
    A = _nonnegative_square(N, "irreducibility")
    return len(_strong_components(A > 0.0)) == 1


def inverse_nonnegative(M) -> bool:
    """True iff M is nonsingular (to tolerance) with entrywise nonnegative
    inverse. Singular input returns False rather than raising."""
    A = np.asarray(M, dtype=float)
    if minor_sign(A, range(A.shape[0])) == 0:
        return False
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return False
    slack = EIG_TOL * float(np.max(np.abs(inv)))
    return bool(np.all(inv >= -slack))
