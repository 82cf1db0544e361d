import numpy as np
import pytest

import lcpbox as lb
from lcpbox.intervals import sign_vectors, signed_vertex
from lcpbox.pointclasses import column_sufficiency_witness

# The four properties tracked throughout the worked examples.
TRACKED = ("semimonotone", "column-sufficient", "r", "r0")


@pytest.fixture
def mid3():
    """3x3 reference matrix: semimonotone, column sufficient, R and R0 but
    principally degenerate (zero diagonal)."""
    return np.array([[0.0, -1.0, 2.0], [2.0, 0.0, -2.0], [-1.0, 1.0, 0.0]])


@pytest.fixture
def box3_10(mid3):
    return lb.from_midpoint_radius(mid3, 0.10 * np.abs(mid3))


@pytest.fixture
def box3_15(mid3):
    return lb.from_midpoint_radius(mid3, 0.15 * np.abs(mid3))


@pytest.fixture
def qp_ref():
    """Reference convex QP whose complementarity conversion is the 4x4
    matrix used across the golden tests."""
    return lb.QpInstance(
        C=[[10.0, 4.0], [4.0, 5.0]],
        d=[1.0, 1.0],
        B=[[2.0, -1.0], [-3.0, 1.0]],
        b=[10.0, 9.0],
    )


@pytest.fixture
def a_ref(qp_ref):
    return lb.qp_to_lcp(qp_ref).A


def random_box(rng, n, entry_scale=2.0, radius_scale=1.0):
    mid = rng.uniform(-entry_scale, entry_scale, (n, n))
    rad = rng.uniform(0.0, radius_scale, (n, n))
    return lb.from_midpoint_radius(mid, rad)


def cs_sign_vertex_counterexample(box):
    """Reference route for strong column sufficiency: the box is strongly
    column sufficient iff every sign-vertex realization mid - D_s rad D_s
    is column sufficient. Returns the first vertex that is not, or None."""
    for s in sign_vectors(box.n, half=True):
        vertex = signed_vertex(box, s, s)
        if column_sufficiency_witness(vertex) is not None:
            return vertex
    return None
