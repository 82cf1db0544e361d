"""Small-scale complementarity solving and QP-to-LCP conversion.

The complementarity problem asks for y = A z + q with y, z >= 0 and
y^T z = 0. At desk scale every complementary support pattern can simply
be enumerated: for each S, make z basic on S and y basic off S, solve the
linear block, and keep the sign-feasible solutions. Exhaustive and easy
to verify, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalMatrix, from_midpoint_radius
from .linalg import minor_sign
from .tolerances import LCP_TOL

__all__ = [
    "LcpInstance",
    "LcpSolution",
    "LcpEnumeration",
    "QpInstance",
    "solve_lcp_enumerate",
    "enumerate_lcp_solutions",
    "qp_to_lcp",
    "qp_to_interval_lcp",
]

_ENUM_CAP = 20


@dataclass(frozen=True)
class LcpInstance:
    """Matrix A and vector q of a complementarity problem."""

    A: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        q = np.asarray(self.q, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if q.shape[0] != A.shape[0]:
            raise ValueError("q length must match A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class LcpSolution:
    """A complementary pair: y = A z + q, y, z >= 0, y^T z = 0.

    ``basis`` is the support pattern S on which z is basic.
    """

    z: np.ndarray
    y: np.ndarray
    basis: tuple[int, ...]

    def complementarity(self) -> float:
        return float(self.y @ self.z)


@dataclass(frozen=True)
class LcpEnumeration:
    solutions: tuple[LcpSolution, ...]
    singular_supports: tuple[tuple[int, ...], ...]


def enumerate_lcp_solutions(instance: LcpInstance) -> LcpEnumeration:
    """All complementary solutions by support-pattern enumeration.

    Supports are swept by increasing cardinality (lexicographic within);
    singular basis blocks are skipped and recorded; duplicate solutions
    from degenerate patterns are merged.
    """
    A, q = instance.A, instance.q
    n = instance.n
    if n > _ENUM_CAP:
        raise ValueError(f"basis enumeration supports n <= {_ENUM_CAP}")
    slack = LCP_TOL * (1.0 + float(np.max(np.abs(A))) + float(np.max(np.abs(q))))
    solutions: list[LcpSolution] = []
    singular: list[tuple[int, ...]] = []
    from itertools import combinations

    for k in range(n + 1):
        for S in combinations(range(n), k):
            idx = list(S)
            z = np.zeros(n)
            if idx:
                block = A[np.ix_(idx, idx)]
                if minor_sign(A, S) == 0:
                    singular.append(S)
                    continue
                z_s = np.linalg.solve(block, -q[idx])
                if np.min(z_s) < -slack:
                    continue
                z[idx] = np.clip(z_s, 0.0, None)
            y = A @ z + q
            if idx and np.max(np.abs(y[idx])) > slack:
                continue
            y[idx] = 0.0
            if np.min(y) < -slack:
                continue
            y = np.clip(y, 0.0, None)
            if any(np.max(np.abs(sol.z - z)) <= slack for sol in solutions):
                continue
            solutions.append(LcpSolution(z=z, y=y, basis=S))
    return LcpEnumeration(tuple(solutions), tuple(singular))


def solve_lcp_enumerate(instance: LcpInstance) -> list[LcpSolution]:
    """All complementary solutions (see :func:`enumerate_lcp_solutions`)."""
    return list(enumerate_lcp_solutions(instance).solutions)


@dataclass(frozen=True)
class QpInstance:
    """Convex quadratic program data:

        minimize x^T C x + d^T x  subject to  B x <= b, x >= 0.

    ``rad_b`` / ``rad_c`` optionally carry entrywise uncertainty radii for
    B and C when the instance was read from a file that provides them.
    """

    C: np.ndarray
    d: np.ndarray
    B: np.ndarray
    b: np.ndarray
    rad_b: np.ndarray | None = None
    rad_c: np.ndarray | None = None

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        d = np.asarray(self.d, dtype=float).ravel()
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        m = C.shape[0]
        if C.shape != (m, m):
            raise ValueError("C must be square")
        if np.max(np.abs(C - C.T), initial=0.0) > 1e-9 * float(
            np.max(np.abs(C), initial=0.0)
        ):
            raise ValueError("C must be symmetric")
        if d.shape[0] != m:
            raise ValueError("d length must match C")
        if B.shape[1] != m:
            raise ValueError("B column count must match C")
        if b.shape[0] != B.shape[0]:
            raise ValueError("b length must match B row count")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        for name in ("rad_b", "rad_c"):
            val = getattr(self, name)
            if val is not None:
                arr = np.atleast_2d(np.asarray(val, dtype=float))
                ref = self.B if name == "rad_b" else self.C
                if arr.shape != ref.shape:
                    raise ValueError(f"{name} shape must match {name[-1].upper()}")
                if np.any(arr < 0):
                    raise ValueError(f"{name} must be nonnegative")
                object.__setattr__(self, name, arr)


def qp_to_lcp(qp: QpInstance) -> LcpInstance:
    """Optimality conditions of the QP as a complementarity problem:

        A = [[0, -B], [B^T, 2C]],  q = (b, d),  z = (u, x)

    with u the multipliers of B x <= b.
    """
    k, m = qp.B.shape
    A = np.zeros((k + m, k + m))
    A[:k, k:] = -qp.B
    A[k:, :k] = qp.B.T
    A[k:, k:] = 2.0 * qp.C
    q = np.concatenate([qp.b, qp.d])
    return LcpInstance(A, q)


def qp_to_interval_lcp(qp: QpInstance, rad_b=None, rad_c=None) -> IntervalMatrix:
    """Interval version of the converted matrix for uncertain B and C.

    The radius inherits the block structure: the zero block stays exact,
    the B blocks get rad_b entrywise, and the 2C block gets 2 * rad_c.
    """
    if rad_b is None:
        rad_b = qp.rad_b
    if rad_c is None:
        rad_c = qp.rad_c
    k, m = qp.B.shape
    rad_b = (np.zeros((k, m)) if rad_b is None
             else np.atleast_2d(np.asarray(rad_b, dtype=float)))
    rad_c = (np.zeros((m, m)) if rad_c is None
             else np.atleast_2d(np.asarray(rad_c, dtype=float)))
    if rad_b.shape != (k, m):
        raise ValueError("rad_b shape must match B")
    if rad_c.shape != (m, m):
        raise ValueError("rad_c shape must match C")
    if np.any(rad_b < 0) or np.any(rad_c < 0):
        raise ValueError("radii must be nonnegative")
    mid = qp_to_lcp(qp).A
    rad = np.zeros_like(mid)
    rad[:k, k:] = rad_b
    rad[k:, :k] = rad_b.T
    rad[k:, k:] = 2.0 * rad_c
    return from_midpoint_radius(mid, rad)
