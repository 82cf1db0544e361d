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
enumeration cap each chunk is decided in batch:

* Nondegeneracy, P and nonsingularity by batched determinant signs, which
  classify exactly as the point deciders do.
* R0, R, semimonotonicity and column sufficiency by a screen that proves
  most matrices pass and flags the rest. R0 and R flag a diagonal entry
  near zero and a block classified singular. R also flags a nonsingular
  block whose closed form w = A_II^-1 e comes near a witness: max w below
  1e-9 * max|w| and max(A_JI w) at most 1 + 1e-6, looser than the point
  decider's own test, so that a last-bit difference of the stacked solve
  cannot hide a failure. Semimonotonicity and column sufficiency flag a
  negative diagonal entry, and a principal (or signed) block B that
  neither a nonnegative row nor a Gordan certificate clears: y >= 0 with
  y^T B >= 1e-6 * max|y| * max|B| for y = e or y = B^-T e, a margin no
  tolerance-feasible LP witness meets. Every flagged matrix is decided
  again by the point decider, in walk order. For R, semimonotonicity and
  column sufficiency the chunk's first matrix goes to the point decider
  unscreened: most failing boxes fail there.

Either way the result is that of a one-at-a-time walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointclasses as pc
from .intervals import IntervalMatrix, disjoint_index_pairs, nonempty_subsets
from .linalg import batch_minor_signs
from .tolerances import CAP_POINT_ENUM

__all__ = [
    "OracleOutcome",
    "ConsistencyEntry",
    "ConsistencyReport",
    "falsify",
    "cross_validate",
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


def _gordan_clears(B: np.ndarray, nonzero_row: bool) -> np.ndarray:
    """Blocks of the stack ``B`` (V, k, k) proven free of a witness for the
    point deciders' block systems, even within the LP tolerance: x >= 0
    with B x < 0 (semimonotonicity) or, when ``nonzero_row``, x > 0 with
    B x <= 0, B x != 0 (column sufficiency).

    A block is cleared by a row with no negative entry, nonzero too when
    ``nonzero_row`` (the point deciders' own prefilters), or by a Gordan
    certificate: y >= 0 with y^T B >= 1e-6 * max|y| * max|B| entrywise,
    for y = e or y = B^-T e. The LP accepts a witness within 1e-8 of
    feasible, relative to its size, so below 100 columns the margin leaves
    it none.
    """
    clear = np.all(B >= 0.0, axis=2)
    if nonzero_row:
        clear &= np.any(B > 0.0, axis=2)
    clear = np.any(clear, axis=1)
    margin = 1e-6 * np.max(np.abs(B), axis=(-2, -1))
    clear |= np.all(B.sum(axis=1) >= margin[:, None], axis=1)
    rest = np.flatnonzero(~clear)
    if rest.size == 0:
        return clear
    try:
        y = np.linalg.solve(np.swapaxes(B[rest], -1, -2),
                            np.ones((rest.size, B.shape[-1], 1)))[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular block: no y here
        return clear
    yB = np.einsum("vi,vij->vj", y, B[rest])
    bound = margin[rest] * np.max(np.abs(y), axis=1)
    clear[rest] = (np.all(np.isfinite(y) & (y >= 0.0), axis=1)
                   & np.all(yB >= bound[:, None], axis=1))
    return clear


def _r_closed_form_maybe(stack: np.ndarray, I, J) -> np.ndarray:
    """Matrices of ``stack`` (all with a nonsingular ``I`` block) on which
    :func:`pointclasses.r_witness`'s closed form may find a witness:
    w = A_II^-1 e with max w < 1e-9 * max|w| and, if J is nonempty,
    max(A_JI w) <= 1 + 1e-6, a superset of its max w < 0 and
    max(A_JI w) <= 1 + 1e-9."""
    idx = list(I)
    w = np.linalg.solve(stack[:, idx][:, :, idx],
                        np.ones((len(stack), len(idx), 1)))[..., 0]
    maybe = np.max(w, axis=1) < 1e-9 * np.max(np.abs(w), axis=1)
    if J:
        AJI = stack[:, list(J)][:, :, idx]
        maybe &= np.max(np.einsum("vij,vj->vi", AJI, w), axis=1) <= 1.0 + 1e-6
    return maybe


def _maybe_fails(stack: np.ndarray, token: str) -> np.ndarray:
    """Mask of the matrices in ``stack`` that this screen cannot prove
    satisfy ``token`` (r0, r, semimonotone or column-sufficient). Every
    matrix the point decider rejects is in the mask.

    * r0 and r: a diagonal entry within the point deciders' zero tolerance
      (1e-12 * max|entry|; for r0 in absolute value), a block of size >= 2
      that :func:`batch_minor_signs` classifies singular, as
      :func:`pointclasses.minor_sign` does, or for r a nonsingular block
      whose closed form may give a witness (:func:`_r_closed_form_maybe`).
    * semimonotone and column-sufficient: a negative diagonal entry, or a
      principal block (semimonotone) or signed block of a disjoint pair
      (column-sufficient, :func:`pointclasses._signed_block`, the point
      decider's own builder) of size >= 2 that :func:`_gordan_clears` does
      not clear.
    """
    n = stack.shape[-1]
    diag = np.diagonal(stack, axis1=-2, axis2=-1)
    if token in ("semimonotone", "column-sufficient"):
        maybe = np.any(diag < 0.0, axis=1)
        pairs = (disjoint_index_pairs(n) if token == "column-sufficient"
                 else ((I, ()) for I in nonempty_subsets(n)))
        for I, J in pairs:
            rest = np.flatnonzero(~maybe)
            if rest.size == 0:
                break
            if len(I) + len(J) < 2:
                continue
            sub = stack[rest]
            B = pc._signed_block(sub, sub, I, J)
            maybe[rest] = ~_gordan_clears(B, token == "column-sufficient")
        return maybe
    ztol = 1e-12 * np.max(np.abs(stack), axis=(-2, -1))
    maybe = np.any((np.abs(diag) if token == "r0" else diag) <= ztol[:, None],
                   axis=1)
    for I in nonempty_subsets(n):
        rest = np.flatnonzero(~maybe)
        if rest.size == 0:
            break
        if len(I) < 2:
            continue
        singular = batch_minor_signs(stack[rest], I) == 0
        maybe[rest[singular]] = True
        if token == "r":
            rest = rest[~singular]
            J = [j for j in range(n) if j not in I]
            maybe[rest] = _r_closed_form_maybe(stack[rest], I, J)
    return maybe


def _first_failure(stack: np.ndarray, prop: pc.PointProperty) -> int | None:
    """Index of the first matrix in ``stack`` violating the property. Above
    CAP_POINT_ENUM every token goes through :func:`pointclasses.point_check`,
    so the capped point deciders raise DimensionCapError.

    For the screened tokens only the matrices :func:`_maybe_fails` flags
    go to the point decider, in order. For r, semimonotone and
    column-sufficient the first matrix goes there unscreened: a failing box
    mostly fails at its first realization, the lower bound, and then the
    rest of the chunk need not be screened. R0 seldom fails, so its whole
    chunk is screened."""
    token, batched = prop.value, stack.shape[-1] <= CAP_POINT_ENUM
    if batched and token in ("principally-nondegenerate", "p", "nonsingular"):
        hits = np.flatnonzero(_minor_failures(stack, token))
        return int(hits[0]) if hits.size else None
    if batched and token in ("r0", "r", "semimonotone", "column-sufficient"):
        first = 0 if token == "r0" else 1
        if first and not pc.point_check(stack[0], prop):
            return 0
        candidates = first + np.flatnonzero(_maybe_fails(stack[first:], token))
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
