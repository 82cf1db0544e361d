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
  most matrices pass and flags the rest. R0 and R apply the point
  decider's own 1x1 rule and, for R, its closed form on a block classified
  nonsingular, both written once for a matrix and a stack, so they flag
  exactly the matrices those rules fail; both also flag every block
  classified singular. Semimonotonicity and column sufficiency flag a
  negative diagonal entry, and a principal (or signed) block B that neither a
  nonnegative row nor a Gordan certificate clears: y >= 0 with
  y^T B >= 1e-6 * max|y| * max|B|, a margin no tolerance-feasible LP
  witness meets. The certificates tried are y = e, y = B^-T e and, along
  a walk, the one an LP found for the same block of an earlier
  realization. Every flagged matrix is decided again by the point
  decider, in walk order. For R, semimonotonicity and column sufficiency
  the chunk's first matrix goes to the point decider unscreened: most
  failing boxes fail there.

:func:`cross_validate` walks each box once for all its verdicts: the
LP-found certificates are kept for the next property's walk, and so are
the chunks and their minor signs when all of them fit in a fixed number
of entries; a longer walk is drawn again for each property. Either way
the result is that of a one-at-a-time walk.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import pointclasses as pc
from .intervals import IntervalMatrix, disjoint_index_pairs, nonempty_subsets
from .linalg import batch_minor_signs
from .lp import GE, LinearSystem, LpEngineError, solve_feasibility
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

# Matrix entries and minor signs a shared walk may keep for its later
# properties: 2 MB of float64 at most, so memory stays flat at any budget.
# A walk with more is not kept at all.
_WALK_ENTRIES = 1 << 18


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


def _minor_failures(stack: np.ndarray, token: str, signs) -> np.ndarray:
    """Matrices failing a determinant-only property, decided per support
    by ``signs(I)``, the classification the point deciders use."""
    n = stack.shape[-1]
    supports = [tuple(range(n))] if token == "nonsingular" else nonempty_subsets(n)
    bad = np.zeros(len(stack), dtype=bool)
    for I in supports:
        sign = signs(I)
        bad |= sign <= 0 if token == "p" else sign == 0
    return bad


def _certified(y: np.ndarray, B: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Blocks of ``B`` (V, k, k) whose y (V, k) is a Gordan certificate
    with margin: y >= 0 and y^T B >= margin * max|y| entrywise."""
    yB = np.einsum("vi,vij->vj", y, B)
    bound = margin * np.max(np.abs(y), axis=1)
    return (np.all(np.isfinite(y) & (y >= 0.0), axis=1)
            & np.all(yB >= bound[:, None], axis=1))


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
    it none. An exactly singular block has no y = B^-T e.
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
    Bt = np.swapaxes(B[rest], -1, -2)
    try:
        y = np.linalg.solve(Bt, np.ones((rest.size, B.shape[-1], 1)))[..., 0]
    except np.linalg.LinAlgError:  # solve the blocks one by one instead
        y = np.full((rest.size, B.shape[-1]), np.nan)
        for v, block in enumerate(Bt):
            try:
                y[v] = np.linalg.solve(block, np.ones(B.shape[-1]))
            except np.linalg.LinAlgError:
                pass
    clear[rest] = _certified(y, B[rest], margin[rest])
    return clear


def _certificate_clears(B: np.ndarray, certificates: dict, key) -> np.ndarray:
    """Blocks of ``B`` (V, k, k), all of block ``key`` = (I, J), that the
    walk's LP-found Gordan certificate for ``key`` clears with
    :func:`_gordan_clears`' margin.

    The first time a walk needs one it solves y >= 0 with
    (B / max|B|)^T y >= e for the first block, once. It keeps y if y clears
    that block with the margin, and None if the LP is infeasible, breaks
    down, or its y misses the margin.
    """
    margin = 1e-6 * np.max(np.abs(B), axis=(-2, -1))
    if key not in certificates:
        k = B.shape[-1]
        system = LinearSystem((B[0] / np.max(np.abs(B[0]))).T, (GE,) * k,
                              np.ones(k), (0.0,) * k)
        try:
            res = solve_feasibility(system)
        except LpEngineError:
            res = None
        y = res.witness if res is not None and res.feasible else None
        if y is not None and not _certified(y[None], B[:1], margin[:1])[0]:
            y = None
        certificates[key] = y
    y = certificates[key]
    if y is None:
        return np.zeros(len(B), dtype=bool)
    return _certified(np.broadcast_to(y, B.shape[:2]), B, margin)


def _maybe_fails(stack: np.ndarray, token: str, signs,
                 certificates: dict | None = None) -> np.ndarray:
    """Mask of the matrices in ``stack`` that this screen cannot prove
    satisfy ``token`` (r0, r, semimonotone or column-sufficient). Every
    matrix the point decider rejects is in the mask.

    * r0 and r: a 1x1 witness by :func:`pointclasses._index_singletons`,
      a block of size >= 2 that ``signs(I)``, the block's
      :func:`batch_minor_signs`, classifies singular, as
      :func:`pointclasses.minor_sign` does, or for r a nonsingular block
      with a witness by :func:`pointclasses._r_closed_form`. Both are the
      point decider's own rules, stacked.
    * semimonotone and column-sufficient: a negative diagonal entry, or a
      principal block (semimonotone) or signed block of a disjoint pair
      (column-sufficient, :func:`pointclasses._signed_block`, the point
      decider's own builder) of size >= 2 that :func:`_gordan_clears` does
      not clear, nor, given a walk's ``certificates``,
      :func:`_certificate_clears`.
    """
    n = stack.shape[-1]
    if token in ("semimonotone", "column-sufficient"):
        maybe = np.any(np.diagonal(stack, axis1=-2, axis2=-1) < 0.0, axis=1)
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
            clear = _gordan_clears(B, token == "column-sufficient")
            if certificates is not None and not clear.all():
                clear[~clear] = _certificate_clears(B[~clear], certificates,
                                                    (I, J))
            maybe[rest] = ~clear
        return maybe
    maybe = np.any(pc._index_singletons(stack, stack, token == "r")[0], axis=1)
    for I in nonempty_subsets(n):
        rest = np.flatnonzero(~maybe)
        if rest.size == 0:
            break
        if len(I) < 2:
            continue
        singular = signs(I)[rest] == 0
        maybe[rest[singular]] = True
        if token == "r":
            rest, idx = rest[~singular], list(I)
            J = [j for j in range(n) if j not in I]
            maybe[rest] = pc._r_closed_form(stack[np.ix_(rest, idx, idx)],
                                            stack[np.ix_(rest, J, idx)])[0]
    return maybe


def _first_failure(chunk: _Chunk, prop: pc.PointProperty,
                   walk: _Walk) -> int | None:
    """Index of the first matrix in ``chunk`` violating the property. Above
    CAP_POINT_ENUM every token goes through :func:`pointclasses.point_check`,
    so the capped point deciders raise DimensionCapError.

    For the screened tokens only the matrices :func:`_maybe_fails` flags
    go to the point decider, in order. For r, semimonotone and
    column-sufficient the first matrix goes there unscreened: a failing box
    mostly fails at its first realization, the lower bound, and then the
    rest of the chunk need not be screened. R0 seldom fails, so its whole
    chunk is screened."""
    stack = chunk.stack
    token, batched = prop.value, stack.shape[-1] <= CAP_POINT_ENUM
    if batched and token in ("principally-nondegenerate", "p", "nonsingular"):
        hits = np.flatnonzero(_minor_failures(
            stack, token, lambda I: walk.minor_signs(chunk, I)))
        return int(hits[0]) if hits.size else None
    if batched and token in ("r0", "r", "semimonotone", "column-sufficient"):
        first = 0 if token == "r0" else 1
        if first and not pc.point_check(stack[0], prop):
            return 0
        maybe = _maybe_fails(stack[first:], token,
                             lambda I: walk.minor_signs(chunk, I)[first:],
                             walk.certificates)
        candidates = first + np.flatnonzero(maybe)
    else:
        candidates = range(len(stack))
    for v in candidates:
        if not pc.point_check(stack[v], prop):
            return int(v)
    return None


class _Chunk:
    """Realizations ``stack`` (V, n, n), read-only, of the walk positions
    ``offset..offset+V-1`` with their ``kinds``. ``signs`` memoizes
    :func:`batch_minor_signs` per index set for a kept walk."""

    def __init__(self, offset: int, stack: np.ndarray, kinds: list[str]):
        stack.flags.writeable = False
        self.offset, self.stack, self.kinds = offset, stack, kinds
        self.signs: dict[tuple, np.ndarray] = {}


def _realization_chunks(box: IntervalMatrix, budget: int, seed: int):
    """The :class:`_Chunk` s of the walk, sized by :func:`_spans`.

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
            yield _Chunk(start, _vertex_stack(box, start, stop),
                         ["vertex"] * (stop - start))
        return
    bounds = np.stack([box.lower, box.upper])[:budget]
    yield _Chunk(0, bounds, ["vertex"] * len(bounds))
    rng = np.random.default_rng(seed)
    for start, stop in _spans(2, budget, n):
        u = rng.random((stop - start, n, n))
        vertex = np.arange(start, stop) % 2 == 0
        stack = np.where(vertex[:, None, None],
                         np.where(u < 0.5, box.upper, box.lower),
                         box.lower + (box.upper - box.lower) * u)
        yield _Chunk(start, stack, ["vertex" if v else "interior" for v in vertex])


class _Walk:
    """The realizations of one (box, budget, seed), shared by the
    :func:`falsify` calls of :func:`cross_validate`.

    When the walk's matrix entries and all their minor signs, (n^2 + 2^n - 1)
    per realization, fit in ``_WALK_ENTRIES``, its chunks are kept as they
    are drawn, with their minor signs; otherwise each walk draws its own.
    ``certificates`` maps a block (I, J) to the Gordan certificate an LP
    found for it, or None when the LP found none (see
    :func:`_certificate_clears`).
    """

    def __init__(self, box: IntervalMatrix, budget: int, seed: int):
        self.box, self.budget, self.seed = box, budget, seed
        self.certificates: dict[tuple, np.ndarray | None] = {}
        n = box.n
        count = budget if n * n > 40 else min(budget, 1 << (n * n))
        keep = count * (n * n + (1 << n) - 1) <= _WALK_ENTRIES
        self._kept: list[_Chunk] | None = [] if keep else None
        self._source = _realization_chunks(box, budget, seed)

    def chunks(self):
        """Every chunk of the walk, in order."""
        if self._kept is None:
            yield from _realization_chunks(self.box, self.budget, self.seed)
            return
        yield from self._kept
        for chunk in self._source:
            self._kept.append(chunk)
            yield chunk

    def minor_signs(self, chunk: _Chunk, I) -> np.ndarray:
        """``batch_minor_signs(chunk.stack, I)``, kept for the later
        properties of a kept walk."""
        signs = chunk.signs.get(I)
        if signs is None:
            signs = batch_minor_signs(chunk.stack, I)
            if self._kept is not None:
                chunk.signs[I] = signs
        return signs


def falsify(box: IntervalMatrix, prop, budget: int = 1000, seed: int = 0, *,
            walk: _Walk | None = None) -> OracleOutcome:
    """Search the box for a realization violating the point property.

    Deterministic under (budget, seed). Walks :func:`_realization_chunks`,
    deciding each chunk with :func:`_first_failure`; ``samples`` counts the
    realizations up to and including the first counterexample, or all of
    them. ``walk``, a :class:`_Walk` of the same box, budget and seed,
    shares its chunks with other properties' walks; it changes no result.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    prop = pc.PointProperty.from_token(
        prop if isinstance(prop, pc.PointProperty) else str(prop))
    if walk is None:
        walk = _Walk(box, budget, seed)
    samples = 0
    for chunk in walk.chunks():
        v = _first_failure(chunk, prop, walk)
        if v is not None:
            counter = {"matrix": chunk.stack[v].copy(), "property": prop.value,
                       "kind": chunk.kinds[v]}
            return OracleOutcome("counterexample-found", counter,
                                 chunk.offset + v + 1)
        samples = chunk.offset + len(chunk.stack)
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
    All verdicts share one :class:`_Walk` of the box.
    """
    walk = _Walk(box, budget, seed)
    entries = []
    for verdict in verdicts:
        outcome = falsify(box, verdict.property, budget=budget, seed=seed,
                          walk=walk)
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
