from itertools import combinations

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.linalg import (
    _minor_threshold,
    _perron_root_irreducible,
    batch_det_signs,
    batch_minor_signs,
    det_sign,
    minor_sign,
    symmetric_part,
)
from lcpbox.tolerances import POWER_MAX_ITER, POWER_TOL


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
        assert lb.determinant(np.eye(3)) == pytest.approx(1.0)

    def test_structurally_singular(self):
        assert lb.determinant([[0, -1], [0, 0]]) == 0.0

    def test_reference_4x4_against_cofactor_oracle(self, a_ref):
        # frozen from exact cofactor expansion of the converted QP matrix
        assert cofactor_det(a_ref) == pytest.approx(1.0, abs=1e-12)
        assert lb.determinant(a_ref) == pytest.approx(1.0, rel=1e-10)

    def test_random_against_cofactor_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.uniform(-3, 3, (4, 4))
            assert lb.determinant(M) == pytest.approx(cofactor_det(M), rel=1e-9)

    def test_permutation_flips_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.uniform(-2, 2, (4, 4))
            P = np.eye(4)[[1, 0, 2, 3]]
            assert lb.determinant(P @ M) == pytest.approx(-lb.determinant(M), rel=1e-9)

    def test_batch_matches_scalar_signs(self):
        rng = np.random.default_rng(2)
        stack = rng.uniform(-2, 2, (40, 3, 3))
        signs = batch_det_signs(stack)
        for k in range(40):
            assert signs[k] == det_sign(stack[k])

    def test_batch_det_signs_match_minor_sign(self):
        # One zero rule: the sign sweep's kernel classifies each matrix as
        # the scalar minor test does, at every block size and ambient scale.
        rng = np.random.default_rng(8)
        zeros = 0
        for k in range(1, 8):
            # diag(r, 1, .., x) with det r*x within an ulp or two of the
            # threshold at reference magnitude r, where numpy's vectorized
            # ** and libm's pow can disagree in the last bit.
            r = np.repeat(rng.uniform(1.0, 3.0, 200), 3)
            x = np.array([_minor_threshold(v, k) / v for v in r])
            x[0::3] = np.nextafter(x[0::3], 0.0)
            x[2::3] = np.nextafter(x[2::3], 1.0)
            near = np.tile(np.eye(k), (len(r), 1, 1))
            near[:, 0, 0] = r
            near[:, -1, -1] *= x
            for stack in (rng.uniform(-2, 2, (40, k, k)),
                          rng.integers(-1, 2, (80, k, k)).astype(float), near):
                above = 2.0 * float(np.max(np.abs(stack)))
                for scale in (0.0, above):
                    batch = batch_det_signs(stack, scale).tolist()
                    scalar = [minor_sign(M, range(k), scale) for M in stack]
                    assert batch == scalar, (k, scale)
                    zeros += scalar.count(0)
                assert batch_det_signs(stack).tolist() == \
                    batch_det_signs(stack, 0.0).tolist()
        assert zeros > 0

    def test_minor_sign_matches_det_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            M = rng.uniform(-2, 2, (4, 4))
            amb = float(np.max(np.abs(M)))
            for idx in [(0,), (1, 3), (0, 1, 2), (0, 1, 2, 3)]:
                sub = M[np.ix_(list(idx), list(idx))]
                assert minor_sign(M, idx, amb) == det_sign(sub, scale=amb)

    def test_tiny_submatrix_classifies_with_ambient_scale(self):
        M = np.array([[1.0, 2.0], [2.0, 1e-14]])
        assert minor_sign(M, (1,), float(np.max(np.abs(M)))) == 0

    @staticmethod
    def _assert_batch_matches_scalar(stack):
        n = stack.shape[-1]
        for k in range(1, n + 1):
            for idx in combinations(range(n), k):
                batch = batch_minor_signs(stack, idx)
                scalar = [minor_sign(M, idx, float(np.max(np.abs(M))))
                          for M in stack]
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
            zero = [minor_sign(M, tuple(range(n)), float(np.max(np.abs(M))))
                    == 0 for M in stack]
            assert any(zero), n  # singular members are present at every n

    def test_batch_minor_signs_tiny_submatrix(self):
        M = np.array([[1.0, 2.0], [2.0, 1e-14]])
        stack = np.stack([M, np.array([[1e-14, 0.0], [0.0, 1e-14]]), -M])
        assert batch_minor_signs(stack, (1,)).tolist() == [0, 1, 0]
        self._assert_batch_matches_scalar(stack)


class TestSpectralRadius:
    def test_zero_matrix(self):
        res = lb.spectral_radius_nonneg(np.zeros((3, 3)))
        assert res.rho == 0.0 and res.converged

    def test_constant_row_sums(self):
        res = lb.spectral_radius_nonneg([[0.5, 0.5], [0.5, 0.5]])
        assert res.rho == pytest.approx(1.0, abs=1e-9)
        assert res.converged

    def test_reducible_exact(self):
        # triangular: the Perron root is the max diagonal entry, exactly
        assert lb.spectral_radius_nonneg([[1, 1], [0, 1]]).rho == pytest.approx(1.0, abs=0)
        assert lb.spectral_radius_nonneg([[0, 2], [0, 0]]).rho == 0.0

    def test_reference_radius_matrix(self, mid3):
        # frozen from the characteristic-polynomial root oracle
        res = lb.spectral_radius_nonneg(0.1 * np.abs(mid3))
        assert res.rho == pytest.approx(0.2847322101863069, abs=1e-8)

    def test_against_charpoly_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = rng.integers(1, 5)
            N = rng.uniform(0, 2, (n, n))
            res = lb.spectral_radius_nonneg(N)
            oracle = float(np.max(np.abs(np.roots(charpoly_coeffs(N)))))
            assert res.rho == pytest.approx(oracle, abs=1e-6)

    def test_residual_on_dominant_block(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            N = rng.uniform(0, 3, (4, 4))
            res = lb.spectral_radius_nonneg(N)
            assert res.converged
            # A positive matrix is irreducible: one block, the whole matrix.
            rho, v, _, converged = _perron_root_irreducible(
                N, POWER_TOL, POWER_MAX_ITER)
            assert converged and rho == res.rho
            resid = float(np.max(np.abs(N @ v - rho * v)))
            assert resid <= 1e-8 * max(1.0, float(np.max(np.abs(N))))

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
