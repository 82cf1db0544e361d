import numpy as np
import pytest

import lcpbox as lb
from lcpbox.lp import EQ, GE, LE, LinearSystem, solve_feasibility

from brute import brute_feasibility


class TestSolveFeasibility:
    def test_contradictory_rows(self):
        sys_ = LinearSystem([[1.0], [-1.0]], (GE, GE), [1.0, 0.0], (None,))
        assert not solve_feasibility(sys_).feasible

    def test_simplex_face(self):
        sys_ = LinearSystem([[1.0, 1.0]], (EQ,), [1.0], (0.0, 0.0))
        res = solve_feasibility(sys_)
        assert res.feasible
        assert res.witness.sum() == pytest.approx(1.0)
        assert np.all(res.witness >= -1e-12)

    def test_free_variables(self):
        sys_ = LinearSystem([[1.0, -1.0]], (EQ,), [-3.0], (None, None))
        res = solve_feasibility(sys_)
        assert res.feasible
        assert res.witness[0] - res.witness[1] == pytest.approx(-3.0)

    def test_witness_satisfies_system(self):
        rng = np.random.default_rng(0)
        feasible_count = 0
        for _ in range(120):
            m = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (m, 2))
            b = rng.uniform(-2, 2, m)
            rels = tuple(rng.choice([LE, GE, EQ]) for _ in range(m))
            bounds = tuple(
                None if rng.random() < 0.3 else float(rng.uniform(-1, 1))
                for _ in range(2)
            )
            sys_ = LinearSystem(A, rels, b, bounds)
            res = solve_feasibility(sys_)
            if res.feasible:
                feasible_count += 1
                assert sys_.satisfied_by(res.witness)
        assert feasible_count > 10

    def test_agreement_with_vertex_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            m = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (m, 2))
            b = rng.uniform(-2, 2, m)
            rels = tuple(str(rng.choice([LE, GE])) for _ in range(m))
            sys_ = LinearSystem(A, rels, b, (0.0, 0.0))
            assert solve_feasibility(sys_).feasible == brute_feasibility(sys_)

    def test_deterministic_witness(self):
        sys_ = LinearSystem(
            [[1.0, 2.0], [2.0, 1.0]], (LE, LE), [4.0, 4.0], (1.0, 1.0)
        )
        r1 = solve_feasibility(sys_)
        r2 = solve_feasibility(sys_)
        assert np.array_equal(r1.witness, r2.witness)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            LinearSystem([[1.0]], (LE, GE), [0.0], (0.0,))
        with pytest.raises(ValueError):
            LinearSystem([[1.0]], ("<",), [0.0], (0.0,))
        with pytest.raises(ValueError):
            LinearSystem([[1.0, 2.0]], (LE,), [0.0], (0.0,))


class TestStrictPositiveSystems:
    def test_identity_is_s(self):
        res = lb.feasible_positive_strict(np.eye(2), strict_all=True)
        assert res.feasible
        assert np.all(res.witness >= 1.0 - 1e-9)

    def test_contradictory_strict_rows(self):
        assert not lb.feasible_positive_strict(
            [[1, -2], [-2, 1]], strict_all=True
        ).feasible

    def test_diagonally_dominant_is_s(self):
        res = lb.feasible_positive_strict([[2, -1], [-1, 2]], strict_all=True)
        assert res.feasible
        x = res.witness
        assert np.all(np.array([[2, -1], [-1, 2]]) @ x > 0)

    def test_nonpositive_with_one_strict(self):
        res = lb.feasible_positive_strict([[0, -1], [0, 0]], strict_all=False)
        assert res.feasible
        assert res.strict_row == 0
        assert np.allclose(res.witness, [1.0, 1.0])

    def test_strict_witness_margins(self):
        rng = np.random.default_rng(2)
        for _ in range(80):
            M = rng.uniform(-2, 2, (3, 3))
            res = lb.feasible_positive_strict(M, strict_all=True)
            if res.feasible:
                x = res.witness
                assert np.all(x > 1e-9)
                assert np.all(M @ x > 1e-9)
            res = lb.feasible_positive_strict(M, strict_all=False)
            if res.feasible:
                x = res.witness
                vals = M @ x
                assert np.all(x > 1e-9)
                assert np.all(vals <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))))
                assert vals[res.strict_row] < -1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            M = rng.uniform(-2, 2, (3, 3))
            base_all = lb.feasible_positive_strict(M, strict_all=True).feasible
            base_one = lb.feasible_positive_strict(M, strict_all=False).feasible
            for lam in (1e-3, 1e3):
                assert lb.feasible_positive_strict(lam * M, True).feasible == base_all
                assert lb.feasible_positive_strict(lam * M, False).feasible == base_one

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            lb.feasible_positive_strict(np.zeros((0, 0)), strict_all=True)

    def test_reference_failure_witness_at_15_percent(self, box3_15):
        # the full-support signed system of the 15%-radius box is feasible,
        # witnessing the column-sufficiency failure
        res = lb.feasible_positive_strict(box3_15.lower, strict_all=False)
        assert res.feasible
        vals = box3_15.lower @ res.witness
        assert np.all(vals <= 1e-9)
        assert vals[res.strict_row] <= -1.0 + 1e-9


def _per_row_disjunction(M):
    """Reference for ``strict_all=False``: one LP per row k with a negative
    entry, ``M x <= 0, (Mx)_k <= -1, x >= e`` on the unit-scaled matrix."""
    c = float(np.max(np.abs(M)))
    if c == 0.0:
        return False
    A = M / c
    m, k = A.shape
    for row in range(m):
        if np.min(A[row]) >= 0.0:
            continue
        sys_ = LinearSystem(np.vstack([A, A[row]]), (LE,) * (m + 1),
                            np.concatenate([np.zeros(m), [-1.0]]),
                            (1.0,) * k)
        if solve_feasibility(sys_).feasible:
            return True
    return False


def test_single_lp_matches_per_row_disjunction():
    rng = np.random.default_rng(19)
    feasible = 0
    for trial in range(2100):
        n = 1 + trial % 7
        kind = trial % 3
        if kind == 0:
            M = rng.uniform(-2, 2, (n, n))
        elif kind == 1:
            M = rng.integers(-2, 3, (n, n)).astype(float)
        else:
            M = rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.5)
        res = lb.feasible_positive_strict(M, strict_all=False)
        assert res.feasible == _per_row_disjunction(M), M
        if not res.feasible:
            continue
        feasible += 1
        # Witness contract, in the normalized scale M / max|M|.
        vals = (M / np.max(np.abs(M))) @ res.witness
        assert np.all(res.witness >= 1.0 - 1e-9)
        assert np.all(vals <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))))
        assert res.strict_row == int(np.argmin(vals))
        assert vals[res.strict_row] <= -1.0 + 1e-9
    assert 500 < feasible < 1600
