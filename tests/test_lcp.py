import numpy as np
import pytest

import lcpbox as lb
from lcpbox.lcp import enumerate_lcp_solutions


def is_solution(A, q, z, tol=1e-8):
    A = np.asarray(A, float)
    z = np.asarray(z, float)
    y = A @ z + q
    scale = 1.0 + float(np.max(np.abs(y))) + float(np.max(np.abs(z)))
    return (
        np.all(z >= -tol * scale)
        and np.all(y >= -tol * scale)
        and abs(y @ z) <= tol * scale**2
    )


class TestEnumeration:
    def test_interior_solution(self):
        sols = lb.solve_lcp_enumerate(lb.LcpInstance(np.eye(2), [-1, -1]))
        assert len(sols) == 1
        assert np.allclose(sols[0].z, [1, 1])
        assert np.allclose(sols[0].y, [0, 0])

    def test_trivial_solution_for_positive_q(self):
        sols = lb.solve_lcp_enumerate(lb.LcpInstance(np.eye(2), [1, 1]))
        assert len(sols) == 1
        assert np.allclose(sols[0].z, [0, 0])
        assert np.allclose(sols[0].y, [1, 1])

    def test_reference_qp_unique_solution(self, qp_ref):
        inst = lb.qp_to_lcp(qp_ref)
        sols = lb.solve_lcp_enumerate(lb.LcpInstance(inst.A, [10, 9, 1, 1]))
        assert len(sols) == 1
        assert np.allclose(sols[0].z, np.zeros(4))

    def test_solution_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, (n, n))
            q = rng.uniform(-2, 2, n)
            for sol in lb.solve_lcp_enumerate(lb.LcpInstance(A, q)):
                assert is_solution(A, q, sol.z)
                assert np.max(np.abs(A @ sol.z + q - sol.y)) <= 1e-7
                assert np.all(np.minimum(sol.y, sol.z) <= 1e-8)

    def test_singular_supports_recorded(self):
        enum = enumerate_lcp_solutions(lb.LcpInstance([[1, 1], [1, 1]], [-1, -1]))
        assert (0, 1) in enum.singular_supports
        assert len(enum.solutions) == 2  # the two vertex solutions

    def test_convexity_midpoint_for_column_sufficient(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, hence column sufficient
        q = np.array([-1.0, -1.0])
        sols = lb.solve_lcp_enumerate(lb.LcpInstance(A, q))
        assert len(sols) >= 2
        for a in sols:
            for b in sols:
                mid = (a.z + b.z) / 2
                assert is_solution(A, q, mid)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="n <= 20"):
            lb.solve_lcp_enumerate(lb.LcpInstance(np.eye(21), np.ones(21)))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            lb.LcpInstance(np.zeros((2, 3)), [1, 2])
        with pytest.raises(ValueError):
            lb.LcpInstance(np.eye(2), [1, 2, 3])


class TestQpConversion:
    def test_reference_matrix(self, qp_ref):
        inst = lb.qp_to_lcp(qp_ref)
        expected = [
            [0, 0, -2, 1],
            [0, 0, 3, -1],
            [2, -3, 20, 8],
            [-1, 1, 8, 10],
        ]
        assert np.allclose(inst.A, expected)
        assert np.allclose(inst.q, [10, 9, 1, 1])

    def test_zero_constraints_block(self):
        qp = lb.QpInstance(C=np.eye(2), d=[0, 0], B=np.zeros((2, 2)), b=[0, 0])
        inst = lb.qp_to_lcp(qp)
        assert np.allclose(inst.A[:2, :2], 0)
        assert np.allclose(inst.A[2:, 2:], 2 * np.eye(2))

    def test_interval_radius_blocks(self, qp_ref):
        absB, absC = np.abs(qp_ref.B), np.abs(qp_ref.C)
        box = lb.qp_to_interval_lcp(qp_ref, np.zeros((2, 2)), absC / 4)
        assert np.all(box.radius[:2, :] == 0)
        assert np.all(box.radius[:, :2] == 0)
        assert np.allclose(box.radius[2:, 2:], 2 * absC / 4)
        row5 = lb.qp_to_interval_lcp(qp_ref, absB / 10, absC / 10)
        assert np.allclose(row5.radius[:2, 2:], absB / 10)
        assert np.allclose(row5.radius[2:, :2], absB.T / 10)

    def test_degenerate_radius(self, qp_ref):
        box = lb.qp_to_interval_lcp(qp_ref, np.zeros((2, 2)), np.zeros((2, 2)))
        assert box.is_degenerate
        assert np.allclose(box.midpoint, lb.qp_to_lcp(qp_ref).A)

    def test_radii_from_instance_fields(self, qp_ref):
        import dataclasses

        qp = dataclasses.replace(qp_ref, rad_b=np.abs(qp_ref.B) / 10,
                                 rad_c=np.abs(qp_ref.C) / 10)
        box = lb.qp_to_interval_lcp(qp)
        assert np.allclose(box.radius[:2, 2:], np.abs(qp_ref.B) / 10)

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            lb.QpInstance(C=[[1, 2], [0, 1]], d=[0, 0], B=[[1, 1]], b=[1])
        with pytest.raises(ValueError):
            lb.QpInstance(C=np.eye(2), d=[0], B=[[1, 1]], b=[1])
        with pytest.raises(ValueError, match="nonnegative"):
            lb.qp_to_interval_lcp(
                lb.QpInstance(C=np.eye(2), d=[0, 0], B=[[1, 1]], b=[1]),
                -np.ones((1, 2)),
                np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("c", [1.0, 1e12])
    def test_symmetry_check_is_scale_invariant(self, c):
        # The asymmetry 5e-10 is the largest entry itself, at either scale.
        C = c * np.array([[1e-12, 5e-10], [0.0, 1e-12]])
        with pytest.raises(ValueError, match="symmetric"):
            lb.QpInstance(C=C, d=[0, 0], B=[[1, 1]], b=[1])
        sym = c * np.array([[1e-12, 5e-10], [5e-10 * (1 + 1e-12), 1e-12]])
        assert np.array_equal(lb.QpInstance(C=sym, d=[0, 0], B=[[1, 1]], b=[1]).C, sym)


class TestDownstreamMeaning:
    def test_strong_r_implies_solvability(self, box3_10):
        assert lb.strong_r(box3_10).holds
        rng = np.random.default_rng(1)
        for _ in range(5):
            pick = rng.random((3, 3))
            A = box3_10.lower + pick * (box3_10.upper - box3_10.lower)
            for _ in range(20):
                q = rng.uniform(-3, 3, 3)
                sols = lb.solve_lcp_enumerate(lb.LcpInstance(A, q))
                assert len(sols) >= 1

    def test_strong_cs_implies_convex_solution_sets(self, box3_10):
        assert lb.strong_column_sufficient(box3_10).holds
        rng = np.random.default_rng(2)
        for _ in range(5):
            pick = rng.random((3, 3))
            A = box3_10.lower + pick * (box3_10.upper - box3_10.lower)
            for _ in range(20):
                q = rng.uniform(-3, 3, 3)
                sols = lb.solve_lcp_enumerate(lb.LcpInstance(A, q))
                for a in sols:
                    for b in sols:
                        assert is_solution(A, q, (a.z + b.z) / 2)
