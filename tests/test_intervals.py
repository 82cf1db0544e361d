import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lcpbox as lb
from lcpbox.intervals import (
    disjoint_index_pairs,
    nonempty_subsets,
    sign_vectors,
)


def small_boxes():
    n = st.integers(min_value=1, max_value=4)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(st.floats(-5, 5, allow_nan=False), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            ),
            st.lists(
                st.lists(st.floats(0, 3, allow_nan=False), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            ),
        )
    )


class TestConstruction:
    def test_degenerate_identity(self):
        box = lb.from_bounds(np.eye(2), np.eye(2))
        assert box.is_degenerate
        assert np.all(box.radius == 0)
        assert np.array_equal(box.midpoint, np.eye(2))

    def test_example_box_from_scaled_radius(self, mid3, box3_10):
        assert np.allclose(box3_10.radius, [[0, 0.1, 0.2], [0.2, 0, 0.2], [0.1, 0.1, 0]])
        assert np.allclose(box3_10.lower + box3_10.upper, 2 * mid3)

    def test_bounds_to_midpoint_radius(self):
        box = lb.from_bounds([[0, -2], [-1, 0]], [[2, 0], [1, 2]])
        assert np.allclose(box.midpoint, [[1, -1], [0, 1]])
        assert np.allclose(box.radius, np.ones((2, 2)))
        assert box.radius[1, 0] == 1.0

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="exceeds upper"):
            lb.from_bounds([[0, 1], [0, 0]], [[0, 0], [0, 0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            lb.from_bounds(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="square"):
            lb.from_bounds(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lb.from_midpoint_radius(np.eye(2), [[0, -0.1], [0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(small_boxes())
    def test_bound_reconstruction(self, data):
        mid, rad = np.array(data[0]), np.array(data[1])
        box = lb.from_midpoint_radius(mid, rad)
        assert np.allclose(box.lower, mid - rad)
        assert np.allclose(box.upper, mid + rad)
        again = lb.from_bounds(box.lower, box.upper)
        assert np.allclose(again.midpoint, box.midpoint)
        assert np.allclose(again.radius, box.radius)


class TestPrincipalSubbox:
    def test_reference_scalar(self, box3_10):
        sub = lb.principal_subbox(box3_10, [0])
        assert sub.n == 1
        assert sub.lower[0, 0] == 0.0 and sub.upper[0, 0] == 0.0

    def test_full_restriction_is_identity(self, box3_10):
        sub = lb.principal_subbox(box3_10, [0, 1, 2])
        assert np.array_equal(sub.lower, box3_10.lower)
        assert np.array_equal(sub.upper, box3_10.upper)

    def test_entry_extraction(self):
        box = lb.from_bounds([[0, -1], [0, 0]], [[2, 1], [0, 2]])
        sub = lb.principal_subbox(box, [1])
        assert sub.lower[0, 0] == 0.0 and sub.upper[0, 0] == 2.0

    def test_rejects_bad_index_sets(self, box3_10):
        with pytest.raises(ValueError):
            lb.principal_subbox(box3_10, [])
        with pytest.raises(ValueError):
            lb.principal_subbox(box3_10, [3])

    @settings(max_examples=40, deadline=None)
    @given(small_boxes(), st.data())
    def test_commutes_with_midpoint(self, data, draw):
        mid, rad = np.array(data[0]), np.array(data[1])
        box = lb.from_midpoint_radius(mid, rad)
        idx = draw.draw(
            st.lists(st.integers(0, box.n - 1), min_size=1, max_size=box.n,
                     unique=True)
        )
        sub = lb.principal_subbox(box, idx)
        assert np.allclose(sub.midpoint, box.midpoint[np.ix_(idx, idx)])
        assert np.allclose(sub.radius, box.radius[np.ix_(idx, idx)])


class TestSignedVertex:
    def test_all_plus_is_lower(self, box3_10):
        s = np.ones(3)
        assert np.allclose(lb.signed_vertex(box3_10, s, s), box3_10.lower)

    def test_mixed_signs(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.5 * np.ones((2, 2)))
        v = lb.signed_vertex(box, [1, -1], [1, -1])
        assert np.allclose(v, [[0.5, 0.5], [0.5, 0.5]])

    def test_dimension_mismatch(self, box3_10):
        with pytest.raises(ValueError):
            lb.signed_vertex(box3_10, [1, 1], [1, 1, 1])

    @settings(max_examples=60, deadline=None)
    @given(small_boxes(), st.data())
    def test_same_sign_vertex_inside_box(self, data, draw):
        mid, rad = np.array(data[0]), np.array(data[1])
        box = lb.from_midpoint_radius(mid, rad)
        s = np.array(draw.draw(
            st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=box.n,
                     max_size=box.n)
        ))
        v = lb.signed_vertex(box, s, s)
        assert box.contains(v, tol=1e-12)


class TestComparisonMatrix:
    def test_identity(self):
        assert np.allclose(lb.comparison_matrix(lb.degenerate(np.eye(2))), np.eye(2))

    def test_interval_magnitudes(self):
        box = lb.from_bounds([[1, -1], [-1, 1]], [[3, 1], [1, 3]])
        assert np.allclose(lb.comparison_matrix(box), [[1, -1], [-1, 1]])

    def test_diagonal_through_zero(self):
        box = lb.from_bounds([[-1.0]], [[2.0]])
        assert lb.comparison_matrix(box)[0, 0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(small_boxes())
    def test_is_z_matrix(self, data):
        mid, rad = np.array(data[0]), np.array(data[1])
        C = lb.comparison_matrix(lb.from_midpoint_radius(mid, rad))
        off = C - np.diag(np.diag(C))
        assert np.all(off <= 0)


def _per_mask_sign_vectors(n, half=False):
    """Reference order: one vector per mask in counting order, bit b of the
    mask setting entry n-1-b to -1; ``half`` counts over the n-1 low bits
    only, pinning entry 0 to +1."""
    free = n - 1 if half else n
    for mask in range(1 << free):
        s = np.ones(n)
        for b in range(free):
            if (mask >> b) & 1:
                s[n - 1 - b] = -1.0
        yield s


class TestEnumerationOrder:
    def test_subsets_by_cardinality_then_lex(self):
        got = list(nonempty_subsets(3))
        assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_sign_vector_counts(self):
        assert len(list(sign_vectors(3))) == 8
        halved = list(sign_vectors(3, half=True))
        assert len(halved) == 4
        assert all(s[0] == 1.0 for s in halved)
        assert np.array_equal(halved[0], np.ones(3))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sign_vector_rows_follow_binary_counting(self, k):
        for half in (False, True):
            expected = list(_per_mask_sign_vectors(k, half))
            got = list(sign_vectors(k, half=half))
            assert len(got) == len(expected)
            assert all(a.dtype == float and np.array_equal(a, b)
                       for a, b in zip(got, expected))

    def test_disjoint_pair_count_and_first_entries(self):
        pairs = list(disjoint_index_pairs(3))
        assert len(pairs) == (3**3 - 1) // 2
        assert pairs[0] == ((0,), ())
        # within each support the J = empty split comes first
        support_first = {}
        for I, J in pairs:
            key = tuple(sorted(I + J))
            support_first.setdefault(key, (I, J))
        for key, (I, J) in support_first.items():
            assert J == ()
            assert I == key
