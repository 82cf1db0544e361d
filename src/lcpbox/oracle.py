"""Independent falsification oracle.

The strong checkers certify; this module only ever refutes. It walks
realization matrices inside a box (all entrywise-endpoint vertices when
their count fits the budget, otherwise sampled vertices plus uniform
interior points) and tests the point-level property on each. A reported
counterexample is always a concrete matrix inside the box whose failure
the point deciders confirm; absence of a counterexample proves nothing.

Exhaustive walks decide the vertices in batches: the determinant-only
properties (nondegeneracy, P, nonsingularity) over the whole vertex stack
with the batched principal-minor kernel, R0 with LPs only on vertices
that have a singular block or a near-zero diagonal entry. Both classify
exactly as the point deciders do, so the first counterexample in mask
order is the one a vertex-by-vertex walk finds.

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


def _point_predicate(prop: str):
    token = pc.PointProperty.from_token(prop)
    return lambda A: pc.point_check(A, token)


# Vertices decided per batch in exhaustive mode; bounds the stack's memory.
_CHUNK = 4096


def _vertex_stack(box: IntervalMatrix, start: int, stop: int) -> np.ndarray:
    """Endpoint vertices ``start..stop-1`` in mask order: bit b of the mask
    takes entry (b // n, b % n) from the upper bound, else the lower."""
    n = box.n
    masks = np.arange(start, stop, dtype=np.int64)
    upper = (masks[:, None] >> np.arange(n * n)) & 1
    return np.where(upper.reshape(-1, n, n) == 1, box.upper, box.lower)


def _minor_failures(stack: np.ndarray, token: str) -> np.ndarray:
    """Vertices failing a determinant-only property, decided per support
    with the same classification the point deciders use."""
    n = stack.shape[-1]
    supports = [tuple(range(n))] if token == "nonsingular" else nonempty_subsets(n)
    bad = np.zeros(len(stack), dtype=bool)
    for I in supports:
        signs = batch_minor_signs(stack, I)
        bad |= signs <= 0 if token == "p" else signs == 0
    return bad


def _r0_lp_candidates(stack: np.ndarray) -> np.ndarray:
    """Vertices on which :func:`pointclasses.r0_witness` can find a witness.

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


def _first_failure(stack: np.ndarray, token: str, holds) -> int | None:
    """Index of the first matrix in ``stack`` violating the property
    ``holds`` decides."""
    if token in ("principally-nondegenerate", "p", "nonsingular"):
        hits = np.flatnonzero(_minor_failures(stack, token))
        return int(hits[0]) if hits.size else None
    if token == "r0":
        candidates = np.flatnonzero(_r0_lp_candidates(stack))
    else:
        candidates = range(len(stack))
    for v in candidates:
        if not holds(stack[v]):
            return int(v)
    return None


def falsify(box: IntervalMatrix, prop, budget: int = 1000,
            seed: int = 0) -> OracleOutcome:
    """Search the box for a realization violating the point property.

    Deterministic under (budget, seed). When 2^(n^2) endpoint vertices fit
    the budget they are enumerated exhaustively in mask order (all-lower
    first); otherwise the bound matrices are tried first, then alternating
    random endpoint vertices and uniform interior samples.

    Exhaustive mode builds the vertices in batches. The determinant-only
    properties (nondegeneracy, P, nonsingularity) are decided for a whole
    batch at once, and R0 runs its LPs only on vertices with a singular
    block or a near-zero diagonal entry, the only ones it can fail on.
    The first counterexample and the ``samples`` count are those of the
    one-vertex-at-a-time walk.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    token = prop.value if isinstance(prop, pc.PointProperty) else str(prop)
    holds = _point_predicate(token)
    n = box.n
    bits = n * n
    examined = 0

    def outcome_for(A: np.ndarray, kind: str) -> OracleOutcome | None:
        if not holds(A):
            counter = {"matrix": A, "property": token, "kind": kind}
            return OracleOutcome("counterexample-found", counter, examined)
        return None

    if bits <= 40 and (1 << bits) <= budget:
        for start in range(0, 1 << bits, _CHUNK):
            stack = _vertex_stack(box, start, min(start + _CHUNK, 1 << bits))
            v = _first_failure(stack, token, holds)
            if v is not None:
                counter = {"matrix": stack[v].copy(), "property": token,
                           "kind": "vertex"}
                return OracleOutcome("counterexample-found", counter,
                                     start + v + 1)
        return OracleOutcome("no-counterexample-in-budget", None, 1 << bits)

    rng = np.random.default_rng(seed)
    examined += 1
    hit = outcome_for(box.lower.copy(), "vertex")
    if hit:
        return hit
    if budget >= 2:
        examined += 1
        hit = outcome_for(box.upper.copy(), "vertex")
        if hit:
            return hit
    while examined < budget:
        examined += 1
        if examined % 2 == 1:
            pick = rng.random((n, n)) < 0.5
            A = np.where(pick, box.upper, box.lower)
            kind = "vertex"
        else:
            A = rng.uniform(box.lower, box.upper)
            kind = "interior"
        hit = outcome_for(A, kind)
        if hit:
            return hit
    return OracleOutcome("no-counterexample-in-budget", None, examined)


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
