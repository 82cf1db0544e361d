import tracemalloc

import numpy as np
import pytest

import lcpbox as lb
from lcpbox import oracle
from lcpbox.oracle import falsify
from lcpbox.errors import DimensionCapError
from lcpbox.linalg import batch_minor_signs
from lcpbox.lp import LpEngineError
from lcpbox.intervals import nonempty_subsets
from lcpbox.pointclasses import (PointProperty, _index_singletons, _r_closed_form,
                                 is_nonsingular, point_check, r0_witness, r_witness)
from lcpbox.tolerances import CAP_POINT_ENUM
from lcpbox.strong import PropertyVerdict
from brute import brute_copositive
from conftest import TRACKED


class TestFalsify:
    def test_exhaustive_vertex_count(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.4 * np.ones((2, 2)))
        out = falsify(box, "principally-nondegenerate", budget=512, seed=0)
        assert out.verdict == "no-counterexample-in-budget"
        assert out.samples == 16  # 2^(2*2) endpoint vertices, exhaustive

    def test_counterexample_confirmed_and_contained(self, box3_15):
        out = falsify(box3_15, "semimonotone", budget=2000, seed=0)
        assert out.found
        A = out.counterexample["matrix"]
        assert box3_15.contains(A, tol=1e-12)
        assert not lb.is_semimonotone(A)

    def test_degenerate_identity_never_falsified(self):
        box = lb.degenerate(np.eye(2))
        for prop in TRACKED + ("s", "copositive", "p", "m"):
            out = falsify(box, prop, budget=64, seed=0)
            assert not out.found, prop

    def test_determinism(self):
        rng = np.random.default_rng(11)
        box = lb.from_midpoint_radius(rng.uniform(-1, 1, (4, 4)),
                                      rng.uniform(0, 0.5, (4, 4)))
        a = falsify(box, "column-sufficient", budget=300, seed=5)
        b = falsify(box, "column-sufficient", budget=300, seed=5)
        assert a.verdict == b.verdict and a.samples == b.samples
        if a.found:
            assert np.array_equal(a.counterexample["matrix"],
                                  b.counterexample["matrix"])

    def test_sampled_mode_tries_bounds_first(self):
        # 2^(n^2) = 2^16 exceeds the budget, so sampling kicks in; the lower
        # bound matrix is examined first and already fails semimonotonicity.
        box = lb.from_midpoint_radius(-np.eye(4), 0.1 * np.ones((4, 4)))
        out = falsify(box, "semimonotone", budget=100, seed=0)
        assert out.found and out.samples == 1

    def test_budget_validation(self, box3_10):
        with pytest.raises(ValueError):
            falsify(box3_10, "r0", budget=0)

    def test_unknown_property(self, box3_10):
        with pytest.raises(ValueError):
            falsify(box3_10, "definitely-not-a-class", budget=10)


def _scalar_vertex_walk(box, prop):
    """Reference exhaustive walk: each endpoint vertex in mask order (bit b
    of the mask takes entry (b // n, b % n) from the upper bound), decided
    one at a time by the point decider."""
    n = box.n
    holds = is_nonsingular if prop == "nonsingular" else (
        lambda A: point_check(A, prop))
    for mask in range(1 << (n * n)):
        A = box.lower.copy()
        for bit in range(n * n):
            if (mask >> bit) & 1:
                A[bit // n, bit % n] = box.upper[bit // n, bit % n]
        if not holds(A):
            return mask + 1, A
    return 1 << (n * n), None


# Between them these boxes give every property counterexamples past the
# first vertex, and a box where it holds at every vertex (the M-matrix box
# holds them all). The integer boxes have exact-zero minors at some
# vertices, among them R0 witnesses on singular 2x2 blocks and on a zero
# diagonal. Semimonotonicity is monotone in the entries, so a vertex after
# the lower bound can fail it only within tolerance: in the last two boxes a
# diagonal entry of -2e-12 or -3e-12 passes the zero tolerance
# 1e-12 * max|entry| at the lower bound, where max|entry| is 5, and fails it
# at the vertex that takes the upper bound 1 in place of -5.
WALK_BOXES = [
    ([[1, -1, 0], [0, 1, -1], [0, 0, 1]], [[1, 0, 1], [1, 1, 0], [1, 1, 1]]),
    ([[1, -2, -2], [1, 2, 1], [0, 2, 2]], [[1, -2, -1], [1, 2, 1], [0, 3, 3]]),
    ([[-2, 2, 2], [1, -2, 2], [2, 2, 1]], [[-2, 3, 2], [2, -2, 2], [2, 2, 2]]),
    ([[0, 0, -1], [-1, -2, 1], [2, -2, 1]], [[0, 0, 0], [-1, -1, 1], [3, -1, 2]]),
    ([[0, 1], [-1, 1]], [[1, 2], [1, 2]]),
    ([[1, 2], [0, 1]], [[1, 3], [1, 1]]),
    ([[-1, -2, 2], [1, 2, 2], [-2, 1, 2]], [[0, -1, 3], [1, 3, 3], [-1, 1, 3]]),
    ([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], [[4, 0, 0], [0, 4, 0], [0, 0, 4]]),
    ([[-2e-12, -5], [0, 1]], [[-2e-12, 1], [0, 1]]),
    ([[1, 0, 0], [0, 1, 0], [0, -5, -3e-12]], [[1, 0, 0], [0, 1, 0], [0, 1, -3e-12]]),
]


@pytest.mark.parametrize("prop", ["principally-nondegenerate", "p",
                                  "nonsingular", "r0", "r", "semimonotone",
                                  "column-sufficient"])
def test_exhaustive_matches_scalar_walk(prop):
    late_hits = holds = 0
    for lower, upper in WALK_BOXES:
        box = lb.from_bounds(lower, upper)
        samples, A = _scalar_vertex_walk(box, prop)
        out = falsify(box, prop, budget=1 << (box.n * box.n), seed=0)
        assert out.samples == samples, (lower, prop)
        assert out.found == (A is not None), (lower, prop)
        if A is not None:
            assert np.array_equal(out.counterexample["matrix"], A)
            assert out.counterexample["kind"] == "vertex"
            late_hits += samples > 1
        else:
            holds += 1
    assert late_hits >= 2 and holds >= 1


def _scalar_sampled_walk(box, prop, budget, seed):
    """Reference sampled walk: the lower and upper bounds, then alternating
    random endpoint vertices and uniform interior points, each drawn from
    the generator and decided by the point decider one at a time."""
    rng = np.random.default_rng(seed)
    n = box.n
    for examined in range(1, budget + 1):
        if examined <= 2:
            A = (box.lower if examined == 1 else box.upper).copy()
            kind = "vertex"
        elif examined % 2 == 1:
            A = np.where(rng.random((n, n)) < 0.5, box.upper, box.lower)
            kind = "vertex"
        else:
            A = rng.uniform(box.lower, box.upper)
            kind = "interior"
        if not point_check(A, prop):
            return examined, A, kind
    return budget, None, None


def _assert_same_walk(box, prop, budget, seed):
    """Compare falsify against the reference; return the reference hit."""
    samples, A, kind = _scalar_sampled_walk(box, prop, budget, seed)
    out = falsify(box, prop, budget=budget, seed=seed)
    assert out.samples == samples, (prop, budget, seed)
    assert out.found == (A is not None), (prop, budget, seed)
    if A is not None:
        assert out.counterexample["matrix"].tobytes() == A.tobytes()
        assert out.counterexample["kind"] == kind
    return samples, kind


TOKENS = [p.value for p in PointProperty]


def _sampled_boxes(n):
    """Wide random boxes and near-identity boxes at dimension n; at n = 2
    also a box whose bounds are P-matrices while some vertices are not, so
    the first P counterexample is often an interior point."""
    rng = np.random.default_rng(100 + n)
    boxes = [lb.from_midpoint_radius(rng.uniform(-2, 2, (n, n)),
                                     rng.uniform(0, 1, (n, n))),
             lb.from_midpoint_radius(np.eye(n) + rng.uniform(-0.5, 0.5, (n, n)),
                                     rng.uniform(0, 0.6, (n, n)))]
    if n == 2:
        boxes.append(lb.from_bounds([[0.5, 0], [0, 0.5]], [[2, 1], [1, 2]]))
    return boxes


def _small_chunks(monkeypatch, n):
    """Patch the chunk sizes to 1, 2, 4, 4, ... realizations of n x n."""
    monkeypatch.setattr(oracle, "_FIRST_ENTRIES", n * n)
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 4 * n * n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sampled_matches_scalar_walk(n, monkeypatch):
    # Budgets below 2^(n^2) select the sampled walk at every n here. Each
    # case runs again with chunks of 1, 2, 4, 4, ... realizations, so that
    # chunk boundaries fall at offsets 2, 3, 5 and 9.
    interior_hits = 0
    for box in _sampled_boxes(n):
        for prop in TOKENS:
            for budget in (1, 2, 3, 10, 11):
                for seed in (0, 1):
                    samples, kind = _assert_same_walk(box, prop, budget, seed)
                    with monkeypatch.context() as m:
                        _small_chunks(m, n)
                        _assert_same_walk(box, prop, budget, seed)
                    interior_hits += kind == "interior" and samples > 3
    if n == 2:
        assert interior_hits >= 1


def test_sampled_walk_crosses_chunk_boundaries():
    # At n = 4 the random draws come in chunks of 512, 1024 and 2048
    # realizations, then the rest; a budget 3 past the largest chunk's size
    # crosses three boundaries. On this box z, nonsingularity, nondegeneracy
    # and R0 hold at every realization, so their walks run to the end of
    # the budget.
    n = 4
    budget = oracle._CHUNK_ENTRIES // (n * n) + 3
    box = lb.from_midpoint_radius(-np.eye(n) - 0.3 * (np.ones((n, n)) - np.eye(n)),
                                  0.2 * np.ones((n, n)))
    full = [prop for prop in TOKENS
            if _assert_same_walk(box, prop, budget, 0)[0] == budget]
    assert set(full) >= {"z", "nonsingular", "principally-nondegenerate", "r0"}


def test_chunks_bounded_by_entries_at_larger_n(monkeypatch):
    # With chunks limited to 3 realizations at n = 8, every chunk stays
    # within the limit and the walk still matches the one-at-a-time
    # reference, for the batched tokens and a scalar one.
    n, budget = 8, 40
    monkeypatch.setattr(oracle, "_FIRST_ENTRIES", n * n)
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 3 * n * n)
    rng = np.random.default_rng(8)
    box = lb.from_midpoint_radius(np.eye(n) + rng.uniform(-0.1, 0.1, (n, n)),
                                  rng.uniform(0, 0.15, (n, n)))
    sizes = [len(chunk.stack) for chunk in
             oracle._realization_chunks(box, budget, 0)]
    assert sum(sizes) == budget and max(sizes) == 3
    for prop in ("p", "principally-nondegenerate", "nonsingular", "r0", "z"):
        _assert_same_walk(box, prop, budget, 0)


@pytest.mark.parametrize("prop", ["p", "principally-nondegenerate", "r0", "r",
                                  "semimonotone", "column-sufficient"])
def test_point_cap_applies_to_batched_tokens(prop):
    # Above CAP_POINT_ENUM the point deciders of these tokens raise, and
    # the falsifier with them, before any realization is decided.
    n = CAP_POINT_ENUM + 1
    box = lb.from_midpoint_radius(np.eye(n), 0.01 * np.ones((n, n)))
    with pytest.raises(DimensionCapError):
        falsify(box, prop, budget=3, seed=0)


def _positive_diagonal(rng, count, n):
    """Random matrices with a positive diagonal, so that mostly the blocks
    planted into them sit near a boundary of the screen."""
    A = rng.uniform(-1.0, 1.0, (count, n, n))
    A[:, range(n), range(n)] = rng.uniform(0.5, 2.0, (count, n))
    return A


def _r_diagonal_probes(rng, count, n):
    """Matrices at the boundary of r_witness's 1x1 rule, a_ii <= ztol and
    a_ji - a_ii >= -ztol for every j != i, with ztol = 1e-12 * max|entry|.
    An entry m outside column i sets max|entry| so that ztol is 2^-37, and
    with a_ii = -0.5 the differences -2 ztol, -ztol, 0 and ztol are exact;
    the other entries of the column sit above them."""
    m = 2.0 ** -37 / 1e-12
    assert 1e-12 * m == 2.0 ** -37
    A = 3.0 * _positive_diagonal(rng, count, n) / 2.0
    for v in range(count):
        i, c = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
        A[v, rng.integers(n), c] = rng.choice([-m, m])
        A[v, :, i] = -0.5 + rng.uniform(0.1, 1.0, n)
        A[v, i, i] = -0.5
        if n > 1:
            j = rng.choice([r for r in range(n) if r != i])
            A[v, j, i] = -0.5 + rng.choice([-2.0, -1.0, 0.0, 1.0]) * 2.0 ** -37
    return A


def _gordan_neighbours(rng, count, n):
    """Small relative perturbations of one matrix whose principal 3x3 block
    B has a Gordan certificate y > 0, y^T B > 0, while y = e and y = B^-T e
    miss: an LP finds a certificate once and the walk reuses it on the
    neighbours. The larger perturbations cross the boundary."""
    while True:
        y = 10.0 ** rng.uniform(-1, 1, 3)
        B = -rng.uniform(0.1, 1.0, (3, 3))
        B[range(3), range(3)] = rng.uniform(0.5, 2.0, 3)
        B[2] = (rng.uniform(0.05, 0.5, 3) - y[:2] @ B[:2]) / y[2]
        if (B[2, 2] > 0 and np.min(B[2]) < 0 and np.min(B.sum(axis=0)) < 0
                and np.min(np.linalg.solve(B.T, np.ones(3))) < 0):
            break
    base = _positive_diagonal(rng, 1, n)[0]
    base[~np.eye(n, dtype=bool)] *= 0.05
    I = rng.choice(n, 3, replace=False)
    base[np.ix_(I, I)] = B
    return base * (1.0 + 10.0 ** rng.uniform(-6, 0, (count, 1, 1))
                   * rng.uniform(-1.0, 1.0, (count, n, n)))


def _screen_stacks(n):
    """Stacks of n x n matrices that probe :func:`oracle._maybe_fails`:
    random at magnitudes 1e-8..1e3, integer-valued, four kinds of planted
    near-boundary blocks, R's 1x1 boundary, neighbours of a block only an
    LP-found Gordan certificate clears, and row- and column-scaled copies."""
    rng = np.random.default_rng(40 + n)
    count = {2: 60, 3: 40, 4: 20, 5: 8}[n]
    stacks = {"integer": rng.integers(-2, 3, (count, n, n)).astype(float)}
    A = rng.uniform(-1.0, 1.0, (count, n, n))
    A[::2] += np.eye(n) * rng.uniform(0.0, 2.0, (len(A[::2]), 1, 1))
    stacks["random"] = A * 10.0 ** rng.uniform(-8, 3, (count, 1, 1))
    # R: a 2x2 block [[a, -b], [-c, d]] with bc > ad, so w = A_II^-1 e < 0,
    # and each other row fitted through one entry to A_JI w = 1 + eps, on
    # either side of r_witness's slack 1e-9; or, with n >= 3, a 3x3 block
    # whose rows are fitted to A_II w = e for a w with an entry near 0.
    A = 3.0 * _positive_diagonal(rng, 4 * count, n)
    for v in range(4 * count):
        if v % 4 or n == 2:
            I = rng.choice(n, 2, replace=False)
            a, d = rng.uniform(0.2, 0.8, 2)
            b, c = rng.uniform(1.0, 2.0, 2)
            A[v][np.ix_(I, I)] = [[a, -b], [-c, d]]
            w = np.linalg.solve(A[v][np.ix_(I, I)], np.ones(2))
            rows = [(r, 1.0 + rng.choice([-1e-9, 5e-10, 1e-9, 2e-9]))
                    for r in range(n) if r not in I]
        else:
            I = rng.choice(n, 3, replace=False)
            w = -rng.uniform(0.5, 2.0, 3)
            w[2] = rng.choice([-1e-9, -1e-12, 0.0, 1e-12])
            rows = [(r, 1.0) for r in I]
        for r, target in rows:
            col = 1 if r == I[0] else 0
            A[v, r, I[col]] += (target - A[v, r, I] @ w) / w[col]
    stacks["r-boundary"] = A
    # Principal blocks with a negative entry in every row and column sums
    # near 0, relative to max|B|.
    A = _positive_diagonal(rng, count, n)
    for v in range(count):
        I = np.sort(rng.choice(n, int(rng.integers(2, n + 1)), replace=False))
        k = len(I)
        B = -rng.uniform(0.1, 1.0, (k, k))
        B[range(k), range(k)] = rng.uniform(0.5, 2.0, k)
        delta = rng.choice([-1e-9, 0.0, 1e-12, 1e-9, 1e-7, 5e-7, 2e-6], k)
        off = ~np.eye(k, dtype=bool)
        A[v][np.ix_(I, I)] = B - off * (B.sum(axis=0)
                                        - delta * np.max(np.abs(B))) / (k - 1)
    stacks["colsum-boundary"] = A
    # Blocks [[t + h p, t - h q], [-p, q]]: y = (1, h) gives y^T B = t e, with
    # t and h tiny, so only a certificate without margin holds, while an LP
    # within its tolerance finds x = (q, p) nearly feasible.
    A = _positive_diagonal(rng, count, n)
    for v in range(count):
        I = rng.choice(n, 2, replace=False)
        p, q = rng.uniform(0.5, 2.0, 2)
        t = rng.choice([1e-14, 1e-12, 1e-10])
        h = rng.choice([1e-12, 1e-10, 1e-9, 1e-8])
        A[v][np.ix_(I, I)] = [[t + h * p, t - h * q], [-p, q]]
    stacks["gordan-boundary"] = A
    # Blocks singular in exact arithmetic: one column a combination of the
    # others, so the float determinant sits at rounding level.
    A = _positive_diagonal(rng, count, n)
    for v in range(count):
        I = rng.choice(n, int(rng.integers(2, n + 1)), replace=False)
        A[v, I, I[-1]] = A[v][np.ix_(I, I[:-1])] @ rng.uniform(-1, 1, len(I) - 1)
    stacks["singular"] = A
    # Drawn from a generator of their own, so that the stacks above and
    # their scaled copies stay as they were.
    extra = np.random.default_rng(80 + n)
    stacks["r-diagonal"] = _r_diagonal_probes(extra, count, n)
    if n >= 3:
        stacks["gordan-neighbours"] = _gordan_neighbours(extra, 2 * count, n)
    for name in list(stacks):
        if name != "integer":
            S = stacks[name]
            stacks[name + "-scaled"] = (10.0 ** rng.uniform(-3, 3, (len(S), n, 1))
                                        * S * 10.0 ** rng.uniform(-3, 3, (len(S), 1, n)))
    return stacks


def _screen(stack, token, certificates=None):
    return oracle._maybe_fails(stack, token, lambda I: batch_minor_signs(stack, I),
                               certificates)


@pytest.mark.parametrize("token", ["r0", "r", "semimonotone",
                                   "column-sufficient"])
def test_screen_flags_every_failure(token):
    # The falsifier decides only the matrices the screen flags, so every
    # matrix the point decider rejects (or breaks down on, which the walk
    # must reach too) has to be flagged. The counts keep the probe honest:
    # enough failures, and enough passing matrices cleared.
    failures = cleared = 0
    for n in (2, 3, 4, 5):
        for name, stack in _screen_stacks(n).items():
            flagged = _screen(stack, token)
            cleared += int(np.sum(~flagged))
            for v, A in enumerate(stack):
                try:
                    holds = point_check(A, token)
                except LpEngineError:
                    holds = False
                if not holds:
                    failures += 1
                    assert flagged[v], (token, name, A.tolist())
    assert failures >= 100 and cleared >= 100


def test_r_singletons_match_the_point_rule():
    # The index sweep's 1x1 rule, _index_singletons, flags a stack exactly
    # as r_witness and r0_witness find a 1x1 witness; both try every 1x1
    # block before any larger one. R0 is probed on the same matrices with
    # the probed column shifted by 0.5, so that its diagonal entry is 0 and
    # R's boundary a_ji - a_ii >= -ztol becomes R0's a_ji >= -ztol.
    hits = {(with_t, single): 0 for with_t in (False, True)
            for single in (False, True)}
    for n in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(90 + n)
        probes = _r_diagonal_probes(rng, 40, n)
        column = np.diagonal(probes, axis1=1, axis2=2) == -0.5
        rows = 10.0 ** rng.uniform(-3, 3, (40, n, 1))
        cols = 10.0 ** rng.uniform(-3, 3, (40, 1, n))
        for with_t, stack, witness in (
                (True, probes, r_witness),
                (False, probes + 0.5 * column[:, None, :], r0_witness)):
            stack = np.concatenate([stack, rows * stack * cols])
            mask = _index_singletons(stack, stack, with_t)[0].any(axis=1)
            for v, A in enumerate(stack):
                try:
                    hit = witness(A)
                except LpEngineError:  # raised past the 1x1 blocks
                    hit = None
                single = hit is not None and len(hit[0]) == 1
                assert mask[v] == single, (with_t, A.tolist())
                hits[with_t, single] += 1
    assert min(hits.values()) >= 50


def test_index_rules_classify_a_stack_as_its_matrices():
    # The screen applies the point decider's 1x1 rule and R's closed form
    # to whole stacks; each matrix of a stack must get exactly the result
    # of its own call, t and w to the bit.
    rng = np.random.default_rng(7)
    stacks = [_r_diagonal_probes(rng, 40, 1)]
    for n in (2, 3, 4, 5):
        stacks += _screen_stacks(n).values()
    closed_forms = 0
    for stack in stacks:
        n = stack.shape[-1]
        for with_t in (False, True):
            hit, t = _index_singletons(stack, stack, with_t)
            for v, A in enumerate(stack):
                one_hit, one_t = _index_singletons(A, A, with_t)
                assert np.array_equal(one_hit, hit[v])
                assert one_t.tobytes() == t[v].tobytes()
        for I in nonempty_subsets(n):
            if len(I) < 2:
                continue
            idx, J = list(I), [j for j in range(n) if j not in I]
            sub = stack[batch_minor_signs(stack, I) != 0]
            hit, w = _r_closed_form(sub[:, idx][:, :, idx], sub[:, J][:, :, idx])
            for v, A in enumerate(sub):
                one_hit, one_w = _r_closed_form(A[np.ix_(idx, idx)],
                                                A[np.ix_(J, idx)])
                assert one_hit == hit[v] and one_w.tobytes() == w[v].tobytes()
                closed_forms += 1
    assert closed_forms >= 1000


@pytest.mark.parametrize("token", ["semimonotone", "column-sufficient"])
def test_walk_certificates_clear_only_passing_matrices(token):
    # Along a walk the screen also tries the Gordan certificate an LP found
    # for the same block of an earlier matrix. Every matrix it clears that
    # way must pass the point decider, and only such matrices are cleared.
    clears = 0
    for n in (2, 3, 4, 5):
        for name, stack in _screen_stacks(n).items():
            alone = _screen(stack, token)
            walked = _screen(stack, token, certificates={})
            assert not np.any(walked & ~alone), (token, name)
            for v in np.flatnonzero(alone & ~walked):
                clears += 1
                assert point_check(stack[v], token), (token, name, stack[v].tolist())
    assert clears >= 100


def test_gordan_clears_blocks_stacked_with_a_singular_one():
    # An exactly singular block in the stack must not cost the others their
    # certificate y = B^-T e.
    A = [[1, -0.9, 0], [-0.9, 1, -0.05], [0, -3, 1]]
    L = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    for nonzero_row in (False, True):
        alone = oracle._gordan_clears(np.array([A], dtype=float), nonzero_row)
        stacked = oracle._gordan_clears(np.array([A, L], dtype=float), nonzero_row)
        assert alone.tolist() == [True] and stacked.tolist() == [True, False]


SHARED_TOKENS = ("semimonotone", "column-sufficient", "r", "r0",
                 "principally-nondegenerate", "p", "nonsingular")
# (strong verdict holds, counterexample found) -> status
STATUS = {(True, True): "contradiction", (True, False): "consistent",
          (False, True): "confirmed", (False, False): "unconfirmed"}


def _assert_shared_walk(box, budget, seed=0, tokens=SHARED_TOKENS):
    """cross_validate's shared walk against one falsify per token."""
    verdicts = [PropertyVerdict(property=t, holds=k % 2 == 0, method="forged",
                                certificate=None, elapsed=0.0)
                for k, t in enumerate(tokens)]
    report = lb.cross_validate(box, verdicts, budget=budget, seed=seed)
    for verdict, entry in zip(verdicts, report.entries):
        alone = falsify(box, verdict.property, budget=budget, seed=seed)
        assert entry.status == STATUS[verdict.holds, alone.found]
        assert entry.samples == alone.samples, verdict.property
        assert (entry.counterexample is None) == (alone.counterexample is None)
        if alone.found:
            assert (entry.counterexample["matrix"].tobytes()
                    == alone.counterexample["matrix"].tobytes())
            assert entry.counterexample["kind"] == alone.counterexample["kind"]


def test_shared_walk_matches_one_walk_per_token():
    for lower, upper in WALK_BOXES:
        box = lb.from_bounds(lower, upper)
        _assert_shared_walk(box, 1 << (box.n * box.n))
    # Criterion 8's distribution, all 512 vertices.
    rng = np.random.default_rng(999)
    for _ in range(50):
        box = lb.from_midpoint_radius(rng.uniform(-2, 2, (3, 3)),
                                      rng.uniform(0, 1, (3, 3)))
        _assert_shared_walk(box, 2000, seed=1)
    # Sampled walks of 4x4 boxes.
    rng = np.random.default_rng(4004)
    for _ in range(12):
        box = lb.from_midpoint_radius(rng.uniform(-2, 2, (4, 4)),
                                      rng.uniform(0, 1, (4, 4)))
        _assert_shared_walk(box, 256, seed=1)


def test_shared_walk_kept_or_drawn_again(monkeypatch):
    # At n = 8 the two bounds, then chunks of 1, 2, 3, 3, ... realizations.
    # A walk whose entries and minor signs fit the bound keeps its chunks
    # and signs; past the bound every property draws its own chunks. Both
    # match a walk of their own.
    n, budget = 8, 40
    monkeypatch.setattr(oracle, "_FIRST_ENTRIES", n * n)
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 3 * n * n)
    rng = np.random.default_rng(8)
    box = lb.from_midpoint_radius(np.eye(n) + rng.uniform(-0.1, 0.1, (n, n)),
                                  rng.uniform(0, 0.15, (n, n)))
    tokens = ("r0", "principally-nondegenerate", "p", "r0", "nonsingular")
    walk = oracle._Walk(box, budget, 0)
    assert sum(len(chunk.stack) for chunk in walk.chunks()) == budget
    assert sum(len(chunk.stack) for chunk in walk._kept) == budget
    _assert_shared_walk(box, budget, tokens=tokens)
    monkeypatch.setattr(oracle, "_WALK_ENTRIES", budget * (n * n + (1 << n) - 1) - 1)
    walk = oracle._Walk(box, budget, 0)
    for token in ("r0", "principally-nondegenerate"):
        out = falsify(box, token, budget=budget, seed=0, walk=walk)
        assert out.samples == budget and not out.found
    assert walk._kept is None
    _assert_shared_walk(box, budget, tokens=tokens)


def test_shared_walk_memory_flat_in_budget():
    # A walk past the entry bound keeps no chunks: from a budget just past
    # the bound, an 8x larger budget adds less than one chunk to the peak.
    # On this box R0 and nondegeneracy hold at every realization, so both
    # walks run to the end of the budget.
    n = 5
    rng = np.random.default_rng(8)
    box = lb.from_midpoint_radius(np.eye(n) + rng.uniform(-0.1, 0.1, (n, n)),
                                  rng.uniform(0, 0.15, (n, n)))
    verdicts = [PropertyVerdict(property=t, holds=True, method="forged",
                                certificate=None, elapsed=0.0)
                for t in ("r0", "principally-nondegenerate")]

    def peak(budget):
        tracemalloc.start()
        try:
            report = lb.cross_validate(box, verdicts, budget=budget, seed=0)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    budget = oracle._WALK_ENTRIES // (n * n + (1 << n) - 1) + 1
    small, report = peak(budget)
    assert [e.samples for e in report.entries] == [budget, budget]
    large, report = peak(8 * budget)
    assert [e.samples for e in report.entries] == [8 * budget, 8 * budget]
    assert large - small < 8 * oracle._CHUNK_ENTRIES


class TestCrossValidate:
    def test_reference_box_consistent(self, box3_10):
        verdicts = [lb.check_property(box3_10, p) for p in TRACKED]
        report = lb.cross_validate(box3_10, verdicts, budget=2000, seed=0)
        assert report.consistent
        assert all(e.status == "consistent" for e in report.entries)

    def test_failed_verdicts_confirmed_or_unconfirmed(self, box3_15):
        verdicts = [lb.check_property(box3_15, p) for p in TRACKED]
        report = lb.cross_validate(box3_15, verdicts, budget=2000, seed=0)
        assert report.consistent
        assert all(e.status in ("confirmed", "unconfirmed") for e in report.entries)

    def test_fault_injection_flags_contradiction(self):
        # a strong-Z claim on a box whose upper bound has a positive
        # off-diagonal entry must be contradicted by the first vertex scan
        box = lb.from_bounds([[1, 0], [0, 1]], [[1, 0.5], [0, 1]])
        fake = PropertyVerdict(property="z", holds=True, method="forged",
                               certificate=None, elapsed=0.0)
        report = lb.cross_validate(box, [fake], budget=64, seed=0)
        assert not report.consistent
        assert report.entries[0].status == "contradiction"


class TestBruteCopositive:
    def test_known_cases(self):
        assert brute_copositive(np.eye(2)) is True
        assert brute_copositive([[1, -2], [-2, 1]]) is False
        assert brute_copositive(np.zeros((2, 2))) is True
        assert brute_copositive(np.zeros((2, 2)), strict=True) is False
        assert brute_copositive([[2, -1], [-1, 2]], strict=True) is True
