"""Independent falsification oracle.

The strong checkers certify; this module only ever refutes. It walks
realization matrices inside a box and tests the point-level property on
each. A reported counterexample is always a concrete matrix inside the box
whose failure the point deciders confirm; absence of a counterexample
proves nothing.

There is one walk, in chunks: every entrywise-endpoint vertex in mask order
when their count fits the budget, otherwise the two bound matrices, then
random vertices alternating with uniform interior points. Chunks start
small and double up to a fixed number of matrix entries, so an early
counterexample is cheap and memory does not grow with n. Up to the point
enumeration cap each chunk is decided at once where a batched decider
exists (the determinant-only properties; R0, with LPs only where a block
is singular or a diagonal entry near zero). Those classify exactly as the
point deciders do, so the result is that of a one-at-a-time walk.

The module also hosts the brute-force point deciders used to cross-check
the main point-class implementations at small dimension: LP-system
properties are re-decided by exhaustive vertex enumeration of the encoded
polyhedra, copositivity by a Lipschitz-certified grid sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import pointclasses as pc
from .intervals import IntervalMatrix, nonempty_subsets
from .linalg import batch_minor_signs, symmetric_part
from .lp import LinearSystem
from .tolerances import CAP_POINT_ENUM

__all__ = [
    "OracleOutcome",
    "ConsistencyEntry",
    "ConsistencyReport",
    "falsify",
    "cross_validate",
    "brute_feasibility",
    "brute_copositive",
]


@dataclass(frozen=True)
class OracleOutcome:
    verdict: str  # "counterexample-found" | "no-counterexample-in-budget"
    counterexample: dict | None
    samples: int

    @property
    def found(self) -> bool:
        return self.verdict == "counterexample-found"


# Matrix entries per chunk: _FIRST_ENTRIES, doubling up to _CHUNK_ENTRIES
# (64 KB to 0.5 MB per float64 array), so an early counterexample is cheap
# and memory is bounded at any n.
_FIRST_ENTRIES = 1 << 13
_CHUNK_ENTRIES = 1 << 16


def _spans(start: int, stop: int, n: int):
    """Consecutive ranges ``(a, b)`` of walk positions covering
    ``start..stop-1``, sized as above for n x n realizations."""
    size, largest = _FIRST_ENTRIES // (n * n), _CHUNK_ENTRIES // (n * n)
    while start < stop:
        end = min(start + max(1, min(size, largest)), stop)
        yield start, end
        start, size = end, 2 * size


def _vertex_stack(box: IntervalMatrix, start: int, stop: int) -> np.ndarray:
    """Endpoint vertices ``start..stop-1`` in mask order: bit b of the mask
    takes entry (b // n, b % n) from the upper bound, else the lower."""
    n = box.n
    masks = np.arange(start, stop, dtype=np.int64)
    upper = (masks[:, None] >> np.arange(n * n)) & 1
    return np.where(upper.reshape(-1, n, n) == 1, box.upper, box.lower)


def _minor_failures(stack: np.ndarray, token: str) -> np.ndarray:
    """Matrices failing a determinant-only property, decided per support
    with the same classification the point deciders use."""
    n = stack.shape[-1]
    supports = [tuple(range(n))] if token == "nonsingular" else nonempty_subsets(n)
    bad = np.zeros(len(stack), dtype=bool)
    for I in supports:
        signs = batch_minor_signs(stack, I)
        bad |= signs <= 0 if token == "p" else signs == 0
    return bad


def _r0_lp_candidates(stack: np.ndarray) -> np.ndarray:
    """Matrices on which :func:`pointclasses.r0_witness` can find a witness.

    It returns one only for a diagonal entry within its zero tolerance
    (1e-12 * max|entry|) or a classified-singular block of size >= 2; it
    passes every other matrix without solving an LP.
    """
    ztol = 1e-12 * np.max(np.abs(stack), axis=(-2, -1))
    diag = np.abs(np.diagonal(stack, axis1=-2, axis2=-1))
    maybe = np.any(diag <= ztol[:, None], axis=1)
    for I in nonempty_subsets(stack.shape[-1]):
        if len(I) >= 2:
            maybe |= batch_minor_signs(stack, I) == 0
    return maybe


def _first_failure(stack: np.ndarray, prop: pc.PointProperty) -> int | None:
    """Index of the first matrix in ``stack`` violating the property. Above
    CAP_POINT_ENUM every token goes through :func:`pointclasses.point_check`,
    so the capped point deciders raise DimensionCapError."""
    token, batched = prop.value, stack.shape[-1] <= CAP_POINT_ENUM
    if batched and token in ("principally-nondegenerate", "p", "nonsingular"):
        hits = np.flatnonzero(_minor_failures(stack, token))
        return int(hits[0]) if hits.size else None
    if batched and token == "r0":
        candidates = np.flatnonzero(_r0_lp_candidates(stack))
    else:
        candidates = range(len(stack))
    for v in candidates:
        if not pc.point_check(stack[v], prop):
            return int(v)
    return None


def _realization_chunks(box: IntervalMatrix, budget: int, seed: int):
    """Chunks ``(offset, stack, kinds)`` of realizations, sized by
    :func:`_spans`, ``offset`` being the walk position of ``stack[0]``.

    All 2^(n^2) endpoint vertices in mask order when they fit the budget;
    otherwise ``budget`` realizations: the lower and upper bounds, then
    uniforms ``u`` of a generator seeded with ``seed``, drawn n^2 per
    realization. Even offsets are vertices taking the upper bound where
    ``u < 1/2``, odd offsets the interior points ``lower + (upper - lower) * u``.
    """
    n = box.n
    vertices = 1 << (n * n)
    if n * n <= 40 and vertices <= budget:
        for start, stop in _spans(0, vertices, n):
            stack = _vertex_stack(box, start, stop)
            yield start, stack, ["vertex"] * len(stack)
        return
    bounds = np.stack([box.lower, box.upper])[:budget]
    yield 0, bounds, ["vertex"] * len(bounds)
    rng = np.random.default_rng(seed)
    for start, stop in _spans(2, budget, n):
        u = rng.random((stop - start, n, n))
        vertex = np.arange(start, stop) % 2 == 0
        stack = np.where(vertex[:, None, None],
                         np.where(u < 0.5, box.upper, box.lower),
                         box.lower + (box.upper - box.lower) * u)
        yield start, stack, ["vertex" if v else "interior" for v in vertex]


def falsify(box: IntervalMatrix, prop, budget: int = 1000,
            seed: int = 0) -> OracleOutcome:
    """Search the box for a realization violating the point property.

    Deterministic under (budget, seed). Walks :func:`_realization_chunks`,
    deciding each chunk with :func:`_first_failure`; ``samples`` counts the
    realizations up to and including the first counterexample, or all of
    them.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    prop = pc.PointProperty.from_token(
        prop if isinstance(prop, pc.PointProperty) else str(prop))
    samples = 0
    for offset, stack, kinds in _realization_chunks(box, budget, seed):
        v = _first_failure(stack, prop)
        if v is not None:
            counter = {"matrix": stack[v].copy(), "property": prop.value,
                       "kind": kinds[v]}
            return OracleOutcome("counterexample-found", counter, offset + v + 1)
        samples = offset + len(stack)
    return OracleOutcome("no-counterexample-in-budget", None, samples)


@dataclass(frozen=True)
class ConsistencyEntry:
    property: str
    strong_holds: bool
    status: str  # "contradiction" | "consistent" | "confirmed" | "unconfirmed"
    samples: int
    counterexample: dict | None


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple[ConsistencyEntry, ...]

    @property
    def contradictions(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if e.status == "contradiction")

    @property
    def consistent(self) -> bool:
        return not self.contradictions


def cross_validate(box: IntervalMatrix, verdicts, budget: int = 1000,
                   seed: int = 0) -> ConsistencyReport:
    """Compare strong verdicts against the falsifier.

    A counterexample against a strong-True verdict is a hard
    contradiction. No counterexample against a strong-False verdict is
    reported as "unconfirmed": the oracle is one-sided and this is
    expected for failures witnessed only off the sampled realizations.
    """
    entries = []
    for verdict in verdicts:
        outcome = falsify(box, verdict.property, budget=budget, seed=seed)
        if verdict.holds:
            status = "contradiction" if outcome.found else "consistent"
        else:
            status = "confirmed" if outcome.found else "unconfirmed"
        entries.append(
            ConsistencyEntry(
                property=verdict.property,
                strong_holds=verdict.holds,
                status=status,
                samples=outcome.samples,
                counterexample=outcome.counterexample,
            )
        )
    return ConsistencyReport(tuple(entries))


# ---------------------------------------------------------------------------
# Brute-force point deciders (test oracles, small n only)
# ---------------------------------------------------------------------------


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
