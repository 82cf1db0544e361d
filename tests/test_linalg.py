from itertools import combinations

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.linalg import (
    _zero_bound,
    batch_det_signs,
    batch_minor_signs,
    minor_sign,
    symmetric_part,
)


def cofactor_det(M):
    """Independent determinant oracle by first-row cofactor expansion."""
    M = [list(map(float, row)) for row in np.asarray(M)]
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1.0) ** j * M[0][j] * cofactor_det(minor)
    return total


def charpoly_coeffs(N):
    """Characteristic polynomial by the trace recursion (independent of any
    eigensolver): c_k = -(1/k) * sum_{i=1..k} c_{k-i} tr(N^i)."""
    N = np.asarray(N, dtype=float)
    n = N.shape[0]
    powers = [np.eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ N)
    traces = [np.trace(powers[i]) for i in range(n + 1)]
    c = [1.0]
    for k in range(1, n + 1):
        s = sum(c[k - i] * traces[i] for i in range(1, k + 1))
        c.append(-s / k)
    return np.array(c)


class TestDeterminant:
    def test_identity(self):
        assert minor_sign(np.eye(3), range(3)) == 1

    def test_structurally_singular(self):
        assert minor_sign(np.array([[0.0, -1.0], [0.0, 0.0]]), (0, 1)) == 0

    def test_reference_4x4_against_cofactor_oracle(self, a_ref):
        # frozen from exact cofactor expansion of the converted QP matrix
        assert cofactor_det(a_ref) == pytest.approx(1.0, abs=1e-12)
        assert minor_sign(np.asarray(a_ref, dtype=float), range(4)) == 1

    def test_random_against_cofactor_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.uniform(-3, 3, (4, 4))
            assert minor_sign(M, range(4)) == np.sign(cofactor_det(M))

    def test_permutation_flips_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.uniform(-2, 2, (4, 4))
            P = np.eye(4)[[1, 0, 2, 3]]
            assert minor_sign(P @ M, range(4)) == -minor_sign(M, range(4)) != 0

    def test_batch_matches_scalar_signs(self):
        rng = np.random.default_rng(2)
        stack = rng.uniform(-2, 2, (40, 3, 3))
        signs = batch_det_signs(stack)
        for k in range(40):
            assert signs[k] == minor_sign(stack[k], range(3))

    def test_batch_det_signs_match_minor_sign(self):
        # One zero rule: the sign sweep's kernel classifies each matrix as
        # the scalar minor test does, at every block size.
        rng = np.random.default_rng(8)
        zeros = 0
        for k in range(1, 8):
            # The identity with last row 2^p * (1, 0, .., 0, x): the
            # determinant is 2^p * x and the bound PIVOT_TOL * k * 2^p,
            # with x at the bound and one ulp either side. Both are exact
            # in the closed forms (k <= 3); numpy's determinant beyond goes
            # through a logarithm, so there only the agreement is pinned.
            bound = _zero_bound(k)
            x = np.tile([np.nextafter(bound, 0.0), bound,
                         np.nextafter(bound, 1.0)], 100)
            near = np.tile(np.eye(k), (len(x), 1, 1))
            near[:, -1, 0] = 1.0
            near[:, -1, -1] = x
            near[:, -1, :] *= np.exp2(rng.integers(-30, 31, len(x)))[:, None]
            if 2 <= k <= 3:
                expected = np.tile([0, 0, 1], 100)
                assert batch_det_signs(near).tolist() == expected.tolist()
            for stack in (rng.uniform(-2, 2, (40, k, k)),
                          rng.integers(-1, 2, (80, k, k)).astype(float), near):
                batch = batch_det_signs(stack).tolist()
                scalar = [minor_sign(M, range(k)) for M in stack]
                assert batch == scalar, k
                zeros += scalar.count(0)
        assert zeros > 0

    def test_minor_sign_matches_cofactor_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            M = rng.uniform(-2, 2, (4, 4))
            for idx in [(0,), (1, 3), (0, 1, 2), (0, 1, 2, 3)]:
                sub = M[np.ix_(list(idx), list(idx))]
                assert minor_sign(M, idx) == np.sign(cofactor_det(sub))

    def test_tiny_entry_in_large_row_classifies_zero(self):
        # det = 1e-14 against the bound 2e-10 * 1 * 1 of rows (1e-14, 1)
        # and (0, 1); the 1x1 block alone is its own scale, so nonzero.
        M = np.array([[1e-14, 1.0], [0.0, 1.0]])
        assert minor_sign(M, (0, 1)) == 0
        assert minor_sign(M, (0,)) == 1
        for scale in (1e-7, 1e7):
            assert minor_sign(np.array([[scale], [1.0]]) * M, (0, 1)) == 0

    @staticmethod
    def _assert_batch_matches_scalar(stack):
        n = stack.shape[-1]
        for k in range(1, n + 1):
            for idx in combinations(range(n), k):
                batch = batch_minor_signs(stack, idx)
                scalar = [minor_sign(M, idx) for M in stack]
                assert batch.tolist() == scalar, (n, idx)

    def test_batch_minor_signs_match_scalar_random(self):
        # n = 4, 5 reach the library-determinant path beyond the closed forms
        rng = np.random.default_rng(4)
        for n in range(1, 6):
            self._assert_batch_matches_scalar(rng.uniform(-2, 2, (60, n, n)))

    def test_batch_minor_signs_match_scalar_exact_zeros(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            stack = rng.integers(-1, 2, (80, n, n)).astype(float)
            self._assert_batch_matches_scalar(stack)
            zero = [minor_sign(M, tuple(range(n))) == 0 for M in stack]
            assert any(zero), n  # singular members are present at every n

    def test_batch_minor_signs_tiny_submatrix(self):
        # A tiny entry in a large row is zero, a uniformly tiny row is not.
        M = np.array([[1e-14, 1.0], [0.0, 1.0]])
        stack = np.stack([M, np.array([[1e-14, 1e-14], [0.0, 1.0]]),
                          np.diag([-1.0, 1.0]) @ M])
        assert batch_minor_signs(stack, (0, 1)).tolist() == [0, 1, 0]
        assert batch_minor_signs(stack, (0,)).tolist() == [1, 1, -1]
        self._assert_batch_matches_scalar(stack)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert lb.spectral_radius_nonneg(np.zeros((3, 3))) == 0.0

    def test_constant_row_sums(self):
        rho = lb.spectral_radius_nonneg([[0.5, 0.5], [0.5, 0.5]])
        assert rho == pytest.approx(1.0, abs=1e-9)

    def test_reducible_exact(self):
        # triangular: the Perron root is the max diagonal entry, exactly
        assert lb.spectral_radius_nonneg([[1, 1], [0, 1]]) == pytest.approx(1.0, abs=0)
        assert lb.spectral_radius_nonneg([[0, 2], [0, 0]]) == 0.0

    def test_reference_radius_matrix(self, mid3):
        # frozen from the characteristic-polynomial root oracle
        rho = lb.spectral_radius_nonneg(0.1 * np.abs(mid3))
        assert rho == pytest.approx(0.2847322101863069, abs=1e-8)

    def test_against_charpoly_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = rng.integers(1, 5)
            N = rng.uniform(0, 2, (n, n))
            rho = lb.spectral_radius_nonneg(N)
            oracle = float(np.max(np.abs(np.roots(charpoly_coeffs(N)))))
            assert rho == pytest.approx(oracle, abs=1e-6)

    def test_residual_on_dominant_block(self):
        # A positive matrix is irreducible: its root is bracketed by the
        # Collatz-Wielandt ratios of any positive vector, and N - rho*I is
        # singular to rounding.
        rng = np.random.default_rng(5)
        for _ in range(20):
            N = rng.uniform(0, 3, (4, 4))
            rho = lb.spectral_radius_nonneg(N)
            for v in (np.ones(4), rng.uniform(0.1, 1.0, 4)):
                ratios = (N @ v) / v
                assert np.min(ratios) <= rho <= np.max(ratios)
            sigma_min = np.linalg.svd(N - rho * np.eye(4), compute_uv=False)[-1]
            assert sigma_min <= 1e-12 * float(np.max(np.abs(N)))

    def test_scales_with_the_matrix(self):
        # rho(c N) = c rho(N) to rounding at any scale, reducible or not.
        rng = np.random.default_rng(15)
        for k in range(40):
            n = int(rng.integers(2, 6))
            N = rng.uniform(0, 2, (n, n))
            if k % 2:
                N[rng.random((n, n)) < 0.4] = 0.0
            rho = lb.spectral_radius_nonneg(N)
            for c in (1e-9, 1e-6, 1e3):
                assert lb.spectral_radius_nonneg(c * N) == pytest.approx(
                    c * rho, rel=1e-12, abs=0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lb.spectral_radius_nonneg([[0, -1], [0, 0]])


class TestDefiniteness:
    def test_pd_examples(self):
        assert lb.is_positive_definite(np.eye(2))
        assert not lb.is_positive_definite([[1, 1], [1, 1]])
        assert lb.is_positive_definite([[20, 8], [8, 10]])  # leading minors 20, 136

    def test_psd_examples(self):
        assert lb.is_positive_semidefinite([[1, 1], [1, 1]])
        assert not lb.is_positive_semidefinite([[1, -2], [-2, 1]])
        assert lb.is_positive_semidefinite(np.zeros((3, 3)))

    def test_pd_implies_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            M = symmetric_part(rng.uniform(-2, 2, (3, 3)))
            if lb.is_positive_definite(M):
                assert lb.is_positive_semidefinite(M)


class TestIrreducibility:
    def test_examples(self, mid3):
        assert not lb.is_irreducible([[1, 1], [0, 1]])
        assert lb.is_irreducible(np.ones((3, 3)))
        assert lb.is_irreducible(0.1 * np.abs(mid3))
        assert lb.is_irreducible(np.zeros((1, 1)))

    def test_against_power_criterion(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            N = (rng.random((n, n)) < 0.4).astype(float)
            power = np.linalg.matrix_power(np.eye(n) + N, n - 1)
            assert lb.is_irreducible(N) == bool(np.all(power > 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lb.is_irreducible([[0, -1], [0, 0]])


class TestInverseNonnegative:
    def test_examples(self):
        assert lb.inverse_nonnegative(np.eye(2))
        assert lb.inverse_nonnegative([[2, -1], [-1, 2]])
        assert not lb.inverse_nonnegative([[0, -1], [0, 0]])  # singular
        assert not lb.inverse_nonnegative([[1, 2], [2, 1]])  # inverse has negatives

    @pytest.mark.parametrize("c", [10.0 ** e for e in range(-6, 13)])
    def test_scale_invariant(self, c):
        # The slack is relative to max|inverse|, which shrinks as c grows:
        # an absolute floor let the -1/(3c) entry pass for c >= 1e9.
        assert not lb.inverse_nonnegative(c * np.array([[1.0, 0.5], [-1.0, 1.0]]))
        assert lb.inverse_nonnegative(c * np.array([[2.0, -1.0], [-1.0, 2.0]]))
