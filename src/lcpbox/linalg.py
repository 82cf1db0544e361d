"""Dense numerical kernels: determinants with sign classification, Perron
spectral radius, definiteness tests, irreducibility, inverse nonnegativity.

Everything operates on small dense matrices. Verdicts are tolerance
classified with deterministic, scale-relative thresholds (see
:mod:`lcpbox.tolerances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import EIG_TOL, PIVOT_TOL, POWER_MAX_ITER, POWER_TOL

__all__ = [
    "SpectralResult",
    "determinant",
    "det_sign",
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


@dataclass(frozen=True)
class SpectralResult:
    """Outcome of a spectral-radius computation on a nonnegative matrix."""

    rho: float
    iterations: int
    converged: bool


def determinant(M, scale: float | None = None) -> float:
    """Determinant via row-pivoted Gaussian elimination.

    Returns 0.0 as soon as a pivot falls below the scale-relative pivot
    tolerance, so the sign of the result is trustworthy up to that
    classification. ``scale`` overrides the reference magnitude; pass the
    ambient matrix's max|entry| when M is a principal submatrix so that
    tiny blocks of a larger matrix classify consistently.
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1.0
    own = float(np.max(np.abs(A)))
    ref = own if scale is None else max(float(scale), own)
    if ref == 0.0:
        return 0.0
    tol = PIVOT_TOL * ref
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[p, k]) <= tol:
            return 0.0
        if p != k:
            A[[k, p]] = A[[p, k]]
            det = -det
        det *= A[k, k]
        if k + 1 < n:
            factors = A[k + 1 :, k] / A[k, k]
            A[k + 1 :, k:] -= np.outer(factors, A[k, k:])
    return det


def det_sign(M, scale: float | None = None) -> int:
    """Sign of the determinant in {-1, 0, +1}, pivot-tolerance classified."""
    d = determinant(M, scale=scale)
    if d > 0.0:
        return 1
    if d < 0.0:
        return -1
    return 0


def _minor_threshold(ref: float, k: int) -> float:
    """Zero-classification bound of a k-by-k minor at reference magnitude
    ``ref``: the one threshold :func:`minor_sign`,
    :func:`batch_minor_signs` and :func:`batch_det_signs` share."""
    return PIVOT_TOL * ref**k * k


def _closed_form_minor(e, idx):
    """Determinant of the ``idx`` principal block for k <= 3 and the
    entries it reads, each read through ``e(r, c)``.

    Works on scalars and on stacked entry arrays alike with one operation
    order, which is what keeps the scalar and batched classifications
    bit-identical.
    """
    k = len(idx)
    if k == 1:
        d = e(idx[0], idx[0])
        return d, (d,)
    if k == 2:
        i, j = idx
        a, b, c, f = e(i, i), e(i, j), e(j, i), e(j, j)
        return a * f - b * c, (a, b, c, f)
    i, j, l = idx
    ii, ij, il = e(i, i), e(i, j), e(i, l)
    ji, jj, jl = e(j, i), e(j, j), e(j, l)
    li, lj, ll = e(l, i), e(l, j), e(l, l)
    d = (
        ii * (jj * ll - jl * lj)
        - ij * (ji * ll - jl * li)
        + il * (ji * lj - jj * li)
    )
    return d, (ii, ij, il, ji, jj, jl, li, lj, ll)


def minor_sign(M: np.ndarray, idx, scale: float) -> int:
    """Classified determinant sign of a principal submatrix.

    Closed-form determinants for blocks up to 3x3, the library determinant
    beyond, always with the same value-based threshold as
    :func:`batch_minor_signs` so block-wise sweeps and point-wise minor
    tests classify identically. ``scale`` is the ambient matrix magnitude
    (pass max|entry| of the full matrix when M is that matrix).
    """
    k = len(idx)
    if k <= 3:
        d, entries = _closed_form_minor(lambda r, c: M[r, c], idx)
        d = float(d)
        sub_max = float(max(abs(x) for x in entries))
    else:
        sub = M[np.ix_(list(idx), list(idx))]
        d = float(np.linalg.det(sub))
        sub_max = float(np.max(np.abs(sub)))
    ref = max(scale, sub_max, 1e-300)
    if abs(d) <= _minor_threshold(ref, k):
        return 0
    return 1 if d > 0 else -1


def _stack_minor_signs(stack: np.ndarray, idx, ref: np.ndarray) -> np.ndarray:
    """Classified signs of the ``idx`` principal minor of every matrix in
    ``stack`` against the reference magnitudes ``ref`` (one per matrix).

    The one batched zero rule: :func:`minor_sign`'s closed forms for blocks
    up to 3x3 in the same operation order, the same library determinant
    beyond, and :func:`_minor_threshold`. numpy's vectorized ``**`` can
    differ from libm ``pow``, which the scalar threshold uses, in the last
    bit, so the determinants within a relative 1e-12 of the vectorized
    threshold are decided again with the scalar one.
    """
    k = len(idx)
    if k <= 3:
        d, _ = _closed_form_minor(lambda r, c: stack[:, r, c], idx)
    elif k == stack.shape[-1] and list(idx) == list(range(k)):
        d = np.linalg.det(stack)
    else:
        d = np.linalg.det(stack[:, list(idx)][:, :, list(idx)])
    size = np.abs(d)
    thresh = PIVOT_TOL * ref**k * k
    zero = size <= thresh
    near = np.abs(size - thresh) <= np.maximum(1e-12 * thresh, 1e-300)
    for v in np.flatnonzero(near).tolist():
        zero[v] = size[v] <= _minor_threshold(float(ref[v]), k)
    signs = np.where(d > 0, 1, -1)
    signs[zero] = 0
    return signs


def batch_minor_signs(stack: np.ndarray, idx) -> np.ndarray:
    """Classified signs of the ``idx`` principal minor of every matrix in
    a stack of shape (V, n, n).

    Element v equals ``minor_sign(stack[v], idx, max|stack[v]|)`` exactly
    (see :func:`_stack_minor_signs`). A block's max|entry| never exceeds
    its matrix's, so the reference magnitude is max(max|stack[v]|, 1e-300).
    """
    stack = np.asarray(stack, dtype=float)
    ref = np.maximum(np.max(np.abs(stack), axis=(-2, -1)), 1e-300)
    return _stack_minor_signs(stack, idx, ref)


def batch_det_signs(stack: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Classified determinant signs of a stack of k-by-k matrices.

    Element v equals ``minor_sign(stack[v], range(k), scale or 0.0)``
    exactly (see :func:`_stack_minor_signs`): ``scale`` is the ambient
    magnitude of the matrix the blocks sit in, as in :func:`minor_sign`.
    """
    stack = np.asarray(stack, dtype=float)
    k = stack.shape[-1]
    ref = np.max(np.abs(stack), axis=(-2, -1))
    if scale is not None:
        ref = np.maximum(ref, float(scale))
    return _stack_minor_signs(stack, range(k), np.maximum(ref, 1e-300))


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


def _perron_root_irreducible(
    B: np.ndarray, tol: float, max_iterations: int
) -> tuple[float, np.ndarray, int, bool]:
    """Perron root of an irreducible nonnegative block.

    Power iteration runs on B + delta*I, which is primitive, and the
    identity shift moves the Perron root by exactly delta, so subtracting
    it back is exact. Collatz-Wielandt ratios give a certified stopping
    interval; on hitting the iteration cap the estimate sequence is
    Richardson-extrapolated and flagged as not converged.
    """
    m = B.shape[0]
    if m == 1:
        return float(B[0, 0]), np.ones(1), 0, True
    delta = 0.5 * float(np.max(B))
    P = B + delta * np.eye(m)
    v = np.full(m, 1.0 / m)
    history: list[float] = []
    for it in range(1, max_iterations + 1):
        w = P @ v
        ratios = w / v
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        est = (lo + hi) / 2.0
        history.append(est)
        if hi - lo <= tol * max(1.0, est):
            return est - delta, v, it, True
        v = w / np.sum(w)
    rho = history[-1]
    if len(history) >= 3:
        l0, l1, l2 = history[-3], history[-2], history[-1]
        denom = (l2 - l1) - (l1 - l0)
        if abs(denom) > 1e-300:
            rho = l2 - (l2 - l1) ** 2 / denom
    return float(rho) - delta, v, max_iterations, False


def spectral_radius_nonneg(
    N,
    tol: float = POWER_TOL,
    max_iterations: int = POWER_MAX_ITER,
) -> SpectralResult:
    """Perron root of an entrywise nonnegative matrix.

    The matrix is split into strongly connected components; the spectral
    radius is the maximum of the component Perron roots, each computed by
    shifted power iteration (see :func:`_perron_root_irreducible`). The
    split keeps reducible inputs exact: no cross-block perturbation is
    introduced.
    """
    A = np.asarray(N, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("spectral radius requires a square matrix")
    if np.any(A < 0):
        raise ValueError("matrix must be nonnegative entrywise")
    if n == 0 or float(np.max(A)) == 0.0:
        return SpectralResult(0.0, 0, True)
    best = 0.0
    total_iterations = 0
    all_converged = True
    for comp in _strong_components(A > 0.0):
        B = A[np.ix_(comp, comp)]
        rho_b, _, its, ok = _perron_root_irreducible(B, tol, max_iterations)
        total_iterations += its
        all_converged = all_converged and ok
        best = max(best, rho_b)
    return SpectralResult(best, total_iterations, all_converged)


def is_positive_definite(M, tol: float = PIVOT_TOL) -> bool:
    """Strict positive definiteness of a symmetric matrix.

    Cholesky factorization succeeds with every pivot above tol * max|entry|.
    """
    A = np.array(symmetric_part(M), dtype=float)
    n = A.shape[0]
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return False
    thresh = tol * scale
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - np.dot(L[j, :j], L[j, :j])
        if d <= thresh:
            return False
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return True


def is_positive_semidefinite(M, tol: float = EIG_TOL) -> bool:
    """Positive semidefiniteness of a symmetric matrix via eigenvalues."""
    A = symmetric_part(M)
    if A.size == 0:
        return True
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    if norm == 0.0:
        return True
    lam_min = float(np.min(np.linalg.eigvalsh(A)))
    return lam_min >= -tol * norm


def is_irreducible(N) -> bool:
    """Irreducibility of a nonnegative matrix.

    Equivalent to strong connectivity of the digraph on nonzero entries
    (and to (I + N)^(n-1) > 0); decided by forward and backward
    reachability from node 0.
    """
    A = np.asarray(N, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("irreducibility requires a square matrix")
    if np.any(A < 0):
        raise ValueError("matrix must be nonnegative entrywise")
    if n == 1:
        return True
    adj = A > 0.0
    for graph in (adj, adj.T):
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in np.nonzero(graph[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        if not seen.all():
            return False
    return True


def inverse_nonnegative(M, tol: float = EIG_TOL) -> bool:
    """True iff M is nonsingular (to tolerance) with entrywise nonnegative
    inverse. Singular input returns False rather than raising."""
    A = np.asarray(M, dtype=float)
    if det_sign(A) == 0:
        return False
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return False
    slack = tol * max(1.0, float(np.max(np.abs(inv))))
    return bool(np.all(inv >= -slack))
