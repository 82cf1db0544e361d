"""Square interval matrices (boxes) and the vertex constructions shared by
all robustness checkers.

A box is the set of real matrices between an entrywise lower and upper
bound. Both the bound form and the midpoint/radius form are stored; they
are computed once at construction so every consumer sees identical values.
Indices are 0-based internally; reports render them 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "IntervalMatrix",
    "from_bounds",
    "from_midpoint_radius",
    "degenerate",
    "principal_subbox",
    "signed_vertex",
    "comparison_matrix",
    "point_comparison_matrix",
    "nonempty_subsets",
    "sign_vectors",
    "disjoint_index_pairs",
]


def _as_square(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def _freeze(A: np.ndarray) -> np.ndarray:
    A = np.ascontiguousarray(A)
    A.setflags(write=False)
    return A


@dataclass(frozen=True)
class IntervalMatrix:
    """An n-by-n box of matrices: lower <= A <= upper entrywise.

    Immutable after construction; safe to share across threads. Use
    :func:`from_bounds` or :func:`from_midpoint_radius` instead of the raw
    constructor.
    """

    lower: np.ndarray
    upper: np.ndarray
    midpoint: np.ndarray = field(repr=False)
    radius: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def memo(self) -> dict:
        """Values that other modules derive from this box alone, kept here
        so each is computed once per box; the box never changes, so they
        never go stale."""
        return {}

    @property
    def is_degenerate(self) -> bool:
        """True when the radius is identically zero (a single matrix)."""
        return bool(np.all(self.radius == 0.0))

    def contains(self, A, tol: float = 0.0) -> bool:
        """Entrywise membership test for a real matrix."""
        A = np.asarray(A, dtype=float)
        if A.shape != self.lower.shape:
            return False
        return bool(
            np.all(A >= self.lower - tol) and np.all(A <= self.upper + tol)
        )

    def __repr__(self) -> str:  # keep the default repr readable for n > 2
        return f"IntervalMatrix(n={self.n}, degenerate={self.is_degenerate})"


def from_bounds(lower, upper) -> IntervalMatrix:
    """Build a box from entrywise lower/upper bound matrices.

    Raises ValueError on shape mismatch or when lower > upper somewhere.
    """
    lo = _as_square(lower, "lower")
    hi = _as_square(upper, "upper")
    if lo.shape != hi.shape:
        raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
    if np.any(lo > hi):
        i, j = np.argwhere(lo > hi)[0]
        raise ValueError(
            f"lower bound exceeds upper bound at entry ({i + 1},{j + 1})"
        )
    mid = (lo + hi) / 2.0
    rad = (hi - lo) / 2.0
    return IntervalMatrix(_freeze(lo), _freeze(hi), _freeze(mid), _freeze(rad))


def from_midpoint_radius(midpoint, radius) -> IntervalMatrix:
    """Build a box from a midpoint matrix and a nonnegative radius matrix."""
    mid = _as_square(midpoint, "midpoint")
    rad = _as_square(radius, "radius")
    if mid.shape != rad.shape:
        raise ValueError(f"shapes differ: {mid.shape} vs {rad.shape}")
    if np.any(rad < 0):
        raise ValueError("radius must be nonnegative entrywise")
    return IntervalMatrix(
        _freeze(mid - rad), _freeze(mid + rad), _freeze(mid.copy()), _freeze(rad)
    )


def degenerate(A) -> IntervalMatrix:
    """The zero-radius box {A}."""
    M = _as_square(A, "matrix")
    return from_bounds(M, M)


def principal_subbox(box: IntervalMatrix, index_set: Sequence[int]) -> IntervalMatrix:
    """Restrict both bounds to the rows and columns in ``index_set``.

    ``index_set`` is 0-based, must be nonempty and within range.
    """
    idx = list(index_set)
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(i < 0 or i >= box.n for i in idx):
        raise ValueError(f"index set {idx} out of range for n={box.n}")
    ix = np.ix_(idx, idx)
    return from_bounds(box.lower[ix], box.upper[ix])


def signed_vertex(box: IntervalMatrix, y, z) -> np.ndarray:
    """The realization midpoint - D_y * radius * D_z.

    ``y`` and ``z`` take entries in {-1, 0, +1}. With y = z = s (all
    entries nonzero) this is the extreme realization selected by the sign
    vector s; y = z = (+1,...,+1) gives the lower bound matrix.
    """
    yv = np.asarray(y, dtype=float)
    zv = np.asarray(z, dtype=float)
    if yv.shape != (box.n,) or zv.shape != (box.n,):
        raise ValueError("sign vectors must have length n")
    return box.midpoint - np.outer(yv, zv) * box.radius


def comparison_matrix(box: IntervalMatrix) -> np.ndarray:
    """Comparison matrix of a box.

    Diagonal entries are the minimal magnitude over the diagonal interval
    (zero if it contains zero); off-diagonal entries are minus the maximal
    magnitude over the interval. The result is a Z-matrix by construction.
    """
    lo, hi = box.lower, box.upper
    C = -np.maximum(np.abs(lo), np.abs(hi))
    d_lo = np.diag(lo)
    d_hi = np.diag(hi)
    diag = np.where(
        (d_lo <= 0.0) & (d_hi >= 0.0), 0.0, np.minimum(np.abs(d_lo), np.abs(d_hi))
    )
    np.fill_diagonal(C, diag)
    return C


def point_comparison_matrix(A) -> np.ndarray:
    """Comparison matrix of a single real matrix: |diag|, -|offdiag|."""
    M = _as_square(A, "matrix")
    C = -np.abs(M)
    np.fill_diagonal(C, np.abs(np.diag(M)))
    return C


# ---------------------------------------------------------------------------
# Deterministic enumeration helpers
#
# Every checker that enumerates subsets, sign vectors or index pairs uses
# these generators, so "first witness" is well defined: subsets by
# increasing cardinality and lexicographic within, sign vectors in binary
# counting order, index pairs grouped by support.
# ---------------------------------------------------------------------------


def nonempty_subsets(n: int) -> Iterator[tuple[int, ...]]:
    """All nonempty subsets of {0..n-1}, smallest first, lexicographic within."""
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


def sign_vectors(n: int, half: bool = False) -> Iterator[np.ndarray]:
    """All vectors in {-1,+1}^n in binary counting order (+1 first): vector
    m has -1 in entry j exactly when bit n-1-j of m is set. They are the
    rows of one array, built at once.

    With ``half=True`` the first entry is pinned to +1, quotienting out the
    s ~ -s symmetry.
    """
    masks = np.arange(1 << (n - 1 if half else n))
    yield from 1.0 - 2.0 * ((masks[:, None] >> np.arange(n - 1, -1, -1)) & 1)


def disjoint_index_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Disjoint pairs (I, J) with I union J nonempty, up to swapping I and J.

    Pairs are grouped by their support T = I union J (supports in
    :func:`nonempty_subsets` order); within a support the smallest element
    always lies in I, and J grows in binary counting order, so (T, empty)
    comes first for each support.
    """
    for support in nonempty_subsets(n):
        rest = support[1:]
        m = len(rest)
        for mask in range(1 << m):
            I = [support[0]]
            J = []
            for b in range(m):
                if (mask >> b) & 1:
                    J.append(rest[b])
                else:
                    I.append(rest[b])
            yield tuple(I), tuple(J)
