import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lcpbox as lb
from lcpbox.errors import DimensionCapError
from lcpbox.intervals import disjoint_index_pairs, nonempty_subsets
from lcpbox.lp import EQ, GE, LE, LinearSystem
from lcpbox.pointclasses import (
    _signed_block,
    column_sufficiency_witness,
    copositive_minimum,
    principal_minor_witness,
    r0_witness,
    r_witness,
    semimonotone_witness,
)

from brute import brute_copositive, brute_feasibility

COUNTEREXAMPLE = np.array([[0.0, -1.0], [0.0, 0.0]])


def matrices(n_max=3, bound=3.0):
    """Square matrices whose entries are zero or comfortably away from the
    classification tolerances (the class semantics, not boundary noise, is
    what the closure properties are about)."""
    entry = st.one_of(
        st.just(0.0),
        st.floats(1e-3, bound, allow_nan=False),
        st.floats(-bound, -1e-3, allow_nan=False),
    )
    n = st.integers(min_value=1, max_value=n_max)
    return n.flatmap(
        lambda k: st.lists(
            st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k
        ).map(lambda rows: np.array(rows, dtype=float))
    )


class TestSignClasses:
    def test_z(self):
        assert lb.is_Z(np.eye(2))
        assert lb.is_Z(COUNTEREXAMPLE)
        assert not lb.is_Z([[1, 0.1], [0, 1]])

    def test_s(self):
        assert lb.is_S(np.eye(3))
        assert not lb.is_S([[1, -2], [-2, 1]])
        assert lb.is_S([[2, -1], [-1, 2]])

    def test_m_and_m0(self):
        assert lb.is_M(np.eye(2)) and lb.is_M0(np.eye(2))
        assert not lb.is_M(COUNTEREXAMPLE)
        assert lb.is_M0(COUNTEREXAMPLE)
        assert not lb.is_M([[1, -1], [-1, 1]])
        assert lb.is_M0([[1, -1], [-1, 1]])
        assert not lb.is_M0([[-1.0]])

    def test_m_agrees_with_inverse_route(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            M = rng.uniform(-2, 2, (n, n))
            if not lb.is_Z(M):
                continue
            assert lb.is_M(M) == (lb.is_Z(M) and lb.inverse_nonnegative(M))

    def test_h(self):
        assert lb.is_H(np.eye(2))
        assert not lb.is_H([[1, -1], [-1, 1]])
        assert lb.is_H([[2, -1], [-1, 2]])


class TestCopositivity:
    def test_examples(self):
        assert lb.is_copositive(np.eye(2)) and lb.is_copositive(np.eye(2), strict=True)
        assert not lb.is_copositive([[1, -2], [-2, 1]])
        assert lb.is_copositive(np.zeros((2, 2)))
        assert not lb.is_copositive(np.zeros((2, 2)), strict=True)

    def test_face_minimum_value(self):
        m_star, x = copositive_minimum([[1, -2], [-2, 1]])
        assert m_star == pytest.approx(-0.5, abs=1e-9)
        assert np.allclose(x, [0.5, 0.5])

    def test_minimizer_is_feasible_witness(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, (n, n))
            m_star, x = copositive_minimum(A)
            assert np.all(x >= -1e-12)
            assert x.sum() == pytest.approx(1.0, abs=1e-9)
            S = (A + A.T) / 2
            assert float(x @ S @ x) == pytest.approx(m_star, abs=1e-9)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(80):
            n = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (n, n))
            for strict in (False, True):
                verdict = brute_copositive(A, strict=strict)
                if verdict is None:
                    continue
                checked += 1
                assert lb.is_copositive(A, strict=strict) == verdict
        assert checked > 60

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_symmetrization_invariance(self, A):
        sym = (A + A.T) / 2
        assert lb.is_copositive(A) == lb.is_copositive(sym)
        assert lb.is_copositive(A, strict=True) == lb.is_copositive(sym, strict=True)


class TestSemimonotone:
    def test_examples(self, mid3):
        assert lb.is_semimonotone(np.eye(3))
        assert lb.is_semimonotone(mid3)
        assert not lb.is_semimonotone([[-1.0]])

    def test_witness_satisfies_definition(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(60):
            A = rng.uniform(-2, 2, (3, 3))
            w = semimonotone_witness(A)
            if w is None:
                continue
            hits += 1
            I, x = w
            idx = list(I)
            assert np.all(x >= -1e-12)
            assert np.all(A[np.ix_(idx, idx)] @ x < 0)
        assert hits > 10


class TestColumnSufficiency:
    def test_counterexample_matrix(self):
        w = column_sufficiency_witness(COUNTEREXAMPLE)
        assert w is not None
        I, J, x, row = w
        assert I == (0, 1) and J == ()
        assert np.allclose(x, [1.0, 1.0])
        assert not lb.is_column_sufficient(COUNTEREXAMPLE)

    def test_identity_and_reference(self, a_ref):
        assert lb.is_column_sufficient(np.eye(2))
        assert lb.is_column_sufficient(a_ref)

    def test_sign_scaling_closure(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            A = rng.uniform(-2, 2, (3, 3))
            base = lb.is_column_sufficient(A)
            s = rng.choice([-1.0, 1.0], 3)
            D = np.diag(s)
            assert lb.is_column_sufficient(D @ A @ D) == base

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_sign_scaling_closure_property(self, A, draw):
        n = A.shape[0]
        s = np.array(draw.draw(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
        ))
        D = np.diag(s)
        assert lb.is_column_sufficient(D @ A @ D) == lb.is_column_sufficient(A)

    def test_signed_block_of_a_stack_matches_each_matrix(self):
        # One builder serves single matrices (the point and strong routes)
        # and stacks (the falsifier screen). The LP sums rows, so the bits
        # and the C layout of a block decide its witness bits.
        rng = np.random.default_rng(12)
        for n in range(2, 5):
            lower = rng.uniform(-2, 2, (6, n, n)) * 10.0 ** rng.uniform(-5, 3)
            upper = lower + rng.uniform(0, 1, (6, n, n))
            for I, J in disjoint_index_pairs(n):
                idx = list(I) + list(J)
                stacked = _signed_block(lower, upper, I, J)
                assert stacked.flags["C_CONTIGUOUS"], (I, J)
                for v in range(len(lower)):
                    one = _signed_block(lower[v], upper[v], I, J)
                    assert one.flags["C_CONTIGUOUS"], (I, J)
                    assert stacked[v].tobytes() == one.tobytes(), (I, J)
                    k = len(I)
                    expected = lower[v][np.ix_(idx, idx)]
                    expected[:k, k:] = -upper[v][np.ix_(I, J)]
                    expected[k:, :k] = -upper[v][np.ix_(J, I)]
                    assert np.array_equal(one, expected), (I, J)


class TestMinorClasses:
    def test_examples(self, mid3):
        assert lb.is_principally_nondegenerate(np.eye(3)) and lb.is_P(np.eye(3))
        assert not lb.is_principally_nondegenerate(mid3)
        assert lb.is_principally_nondegenerate([[2, -1], [-1, 2]])
        assert lb.is_P([[2, -1], [-1, 2]])

    def test_first_witness_order(self, mid3):
        w = principal_minor_witness(mid3, require_positive=False)
        assert w == ((0,), 0)


class TestR0AndR:
    def test_examples(self, mid3):
        assert lb.is_R0(np.eye(2)) and lb.is_R(np.eye(2))
        assert not lb.is_R0(np.zeros((2, 2))) and not lb.is_R(np.zeros((2, 2)))
        assert lb.is_R0(mid3) and lb.is_R(mid3)

    def test_witnesses_satisfy_systems(self):
        rng = np.random.default_rng(5)
        hits_r0 = hits_r = 0
        for _ in range(150):
            A = rng.uniform(-1, 1, (3, 3))
            w = r0_witness(A)
            if w is not None:
                hits_r0 += 1
                I, x = w
                idx = list(I)
                J = [j for j in range(3) if j not in I]
                assert np.all(x >= 1.0 - 1e-9)
                assert np.max(np.abs(A[np.ix_(idx, idx)] @ x)) <= 1e-7
                if J:
                    assert np.min(A[np.ix_(J, idx)] @ x) >= -1e-7
            w = r_witness(A)
            if w is not None:
                hits_r += 1
                I, x, t = w
                idx = list(I)
                J = [j for j in range(3) if j not in I]
                assert t >= -1e-12 and np.all(x >= 1.0 - 1e-9)
                assert np.max(np.abs(A[np.ix_(idx, idx)] @ x + t)) <= 1e-7
                if J:
                    assert np.min(A[np.ix_(J, idx)] @ x + t) >= -1e-7
        assert hits_r > 20

    def test_r_implies_r0(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, (n, n))
            if lb.is_R(A):
                assert lb.is_R0(A)


class TestBruteForceEquivalence:
    """Definition-level oracle cross-checks at n <= 3: the same defining
    systems decided by exhaustive vertex enumeration instead of simplex."""

    def _brute_semimonotone(self, A):
        n = A.shape[0]
        for I in nonempty_subsets(n):
            idx = list(I)
            sub = A[np.ix_(idx, idx)]
            sys_ = LinearSystem(sub, (LE,) * len(idx), -np.ones(len(idx)),
                                (0.0,) * len(idx))
            if brute_feasibility(sys_):
                return False
        return True

    def _brute_column_sufficient(self, A):
        n = A.shape[0]
        for I, J in disjoint_index_pairs(n):
            idx = list(I) + list(J)
            k = len(I)
            sub = A[np.ix_(idx, idx)].copy()
            sub[:k, k:] *= -1.0
            sub[k:, :k] *= -1.0
            m = len(idx)
            for row in range(m):
                coeffs = np.vstack([sub, sub[row]])
                rhs = np.concatenate([np.zeros(m), [-1.0]])
                sys_ = LinearSystem(coeffs, (LE,) * (m + 1), rhs, (1.0,) * m)
                if brute_feasibility(sys_):
                    return False
        return True

    def _brute_r0(self, A):
        n = A.shape[0]
        for I in nonempty_subsets(n):
            idx = list(I)
            J = [j for j in range(n) if j not in I]
            rows = [A[np.ix_(idx, idx)]]
            rels = [EQ] * len(idx)
            if J:
                rows.append(A[np.ix_(J, idx)])
                rels += [GE] * len(J)
            coeffs = np.vstack(rows)
            sys_ = LinearSystem(coeffs, tuple(rels), np.zeros(coeffs.shape[0]),
                                (1.0,) * len(idx))
            if brute_feasibility(sys_):
                return False
        return True

    def _brute_r(self, A):
        n = A.shape[0]
        for I in nonempty_subsets(n):
            idx = list(I)
            k = len(idx)
            J = [j for j in range(n) if j not in I]
            rows = [np.column_stack([A[np.ix_(idx, idx)], np.ones(k)])]
            rels = [EQ] * k
            if J:
                rows.append(np.column_stack([A[np.ix_(J, idx)], np.ones(len(J))]))
                rels += [GE] * len(J)
            coeffs = np.vstack(rows)
            sys_ = LinearSystem(coeffs, tuple(rels), np.zeros(coeffs.shape[0]),
                                (1.0,) * k + (0.0,))
            if brute_feasibility(sys_):
                return False
        return True

    def test_equivalence_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (n, n))
            assert lb.is_semimonotone(A) == self._brute_semimonotone(A)
            assert lb.is_column_sufficient(A) == self._brute_column_sufficient(A)
            assert lb.is_R0(A) == self._brute_r0(A)
            assert lb.is_R(A) == self._brute_r(A)


class TestScaleInvariance:
    def test_verdicts_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(8)
        checks = (
            lb.is_S,
            lb.is_copositive,
            lb.is_semimonotone,
            lb.is_column_sufficient,
            lb.is_R0,
            lb.is_R,
        )
        for _ in range(25):
            A = rng.uniform(-2, 2, (3, 3))
            base = [c(A) for c in checks]
            for lam in (1e-3, 1e3):
                assert [c(lam * A) for c in checks] == base


class TestImplicationChain:
    def test_implications_on_random_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, (n, n))
            if lb.is_M(A):
                assert lb.is_M0(A)
                assert lb.is_H(A)
                assert lb.is_P(A)
            if lb.is_M0(A):
                assert lb.is_Z(A)
            if lb.is_P(A):
                assert lb.is_principally_nondegenerate(A)
                assert lb.is_column_sufficient(A)
                assert lb.is_semimonotone(A)
                assert lb.is_R0(A)
                assert lb.is_R(A)
                assert lb.is_S(A)
            if lb.point_check(A, "pd"):
                assert lb.is_copositive(A, strict=True)
            if lb.is_copositive(A, strict=True):
                assert lb.is_copositive(A)
                assert lb.is_S(A)
            if lb.point_check(A, "psd"):
                assert lb.is_copositive(A)
                assert lb.is_column_sufficient(A)


class TestDimensionCaps:
    def test_cap_refuses_large_enumeration(self):
        big = np.eye(17)
        with pytest.raises(DimensionCapError):
            lb.is_semimonotone(big)
        with pytest.raises(DimensionCapError):
            lb.is_column_sufficient(big)
        with pytest.raises(DimensionCapError):
            lb.is_principally_nondegenerate(big)

    def test_override_allows_it(self):
        from lcpbox.pointclasses import is_semimonotone

        assert is_semimonotone(np.eye(17), cap=17)
