"""Numerical robustness at adversarial scales.

The deciders classify with scale-relative tolerances and the LP encodings
normalize their homogeneous systems, so verdicts must be invariant under
positive rescaling across many orders of magnitude and every certificate
must survive re-verification even on badly scaled boxes.
"""

import numpy as np

import lcpbox as lb
from lcpbox.pointclasses import is_nonsingular
from lcpbox.strong import ALL_STRONG_PROPERTIES

POINT_CHECKS = (
    lb.is_M,
    lb.is_M0,
    lb.is_Z,
    lambda A: lb.is_copositive(A),
    lambda A: lb.is_copositive(A, strict=True),
    lb.is_semimonotone,
    lb.is_column_sufficient,
    lb.is_R0,
    lb.is_R,
    lb.is_S,
)


def test_point_checks_survive_tiny_and_mixed_scales():
    rng = np.random.default_rng(0)
    for _ in range(400):
        n = int(rng.integers(1, 4))
        mag = 10.0 ** rng.uniform(-12, 1)
        A = rng.uniform(-mag, mag, (n, n))
        for check in POINT_CHECKS:
            check(A)  # must neither raise nor hit engine failures


def test_strong_checks_and_certificates_at_tiny_scales():
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(1, 4))
        mag = 10.0 ** rng.uniform(-10, 1)
        mid = rng.uniform(-mag, mag, (n, n))
        rad = rng.uniform(0, mag / 2, (n, n))
        box = lb.from_midpoint_radius(mid, rad)
        for prop in ALL_STRONG_PROPERTIES:
            # check_property re-verifies certificates and raises on mismatch
            lb.check_property(box, prop)


def test_verdicts_invariant_across_twelve_decades():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, (n, n))
        base = [check(A) for check in POINT_CHECKS]
        for lam in (1e-9, 1e-4, 1e5):
            assert [check(lam * A) for check in POINT_CHECKS] == base


def test_strong_verdicts_invariant_under_permutation_and_scaling():
    # The benchmark workloads permute their boxes per seed on this
    # assumption: P A P^T and c A (c > 0) keep every strong verdict. Every
    # other box has a dominant diagonal and a nonpositive off-diagonal
    # midpoint, so that each property holds on some boxes and fails on
    # others.
    rng = np.random.default_rng(3)
    for k in range(60):
        mid = rng.uniform(-2, 2, (3, 3))
        rad = rng.uniform(0, 1, (3, 3))
        if k % 2:
            mid, rad = 2.5 * np.eye(3) - np.abs(mid) / 2, rad / 4
        p = rng.permutation(3)
        c = 10.0 ** rng.uniform(-3, 3)
        boxes = (lb.from_midpoint_radius(mid, rad),
                 lb.from_midpoint_radius(mid[np.ix_(p, p)], rad[np.ix_(p, p)]),
                 lb.from_midpoint_radius(c * mid, c * rad))
        for prop in ALL_STRONG_PROPERTIES:
            base, permuted, scaled = (lb.check_property(b, prop).holds
                                      for b in boxes)
            assert base == permuted == scaled, (prop, mid, rad, p, c)


def test_determinant_verdicts_invariant_under_row_scaling():
    # D A with D = diag(10^U(-7, 0)) scales every principal minor and the
    # zero rule's bound, the product of the block's row maxima, by the
    # same factor, so no determinant-based verdict may change. Integer
    # matrices bring exact zero minors, and every other box has a
    # dominant diagonal, so that each verdict holds on some inputs and
    # fails on others.
    rng = np.random.default_rng(4)
    point = (is_nonsingular, lb.is_principally_nondegenerate, lb.is_P)
    seen = set()
    for k in range(80):
        n = int(rng.integers(1, 5))
        A = (rng.integers(-1, 2, (n, n)).astype(float) if k % 2
             else rng.uniform(-2, 2, (n, n)))
        D = 10.0 ** rng.uniform(-7.0, 0.0, n)
        for check in point:
            base = check(A)
            assert check(D[:, None] * A) == base, (check.__name__, A, D)
            seen.add((check.__name__, base))
    for k in range(60):
        mid = rng.uniform(-2, 2, (3, 3))
        rad = rng.uniform(0, 1, (3, 3))
        if k % 2:
            mid, rad = 2.5 * np.eye(3) - np.abs(mid) / 2, rad / 4
        D = 10.0 ** rng.uniform(-7.0, 0.0, 3)[:, None]
        boxes = (lb.from_midpoint_radius(mid, rad),
                 lb.from_midpoint_radius(D * mid, D * rad))
        for prop in ("nonsingular", "principally-nondegenerate"):
            base, scaled = (lb.check_property(b, prop).holds for b in boxes)
            assert base == scaled, (prop, mid, rad, D)
            seen.add((prop, base))
    assert len(seen) == 10  # every verdict both holds and fails somewhere


def test_m_verdicts_invariant_under_scaling_near_the_margin():
    # Z = rho(A)(1 +- 1e-7) I - A sits just inside or outside the M-matrix
    # cone, well beyond the relative tolerance; the Perron root scales with
    # the matrix, so no scale may move the verdicts.
    A = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [2.0, 1.0, 0.0]])
    rho = float(np.max(np.linalg.eigvals(A).real))
    for f, expected in ((1.0 - 1e-7, False), (1.0 + 1e-7, True)):
        Z = rho * f * np.eye(3) - A
        for c in (1.0, 1e-4, 1e-6):
            assert (lb.is_M(c * Z), lb.is_M0(c * Z)) == (expected, expected), (f, c)


def test_strong_verdicts_invariant_at_tiny_scales():
    # The strong checks' zero tolerances are relative to the box's largest
    # entry with no floor, so shrinking a box by 1e-13 keeps every verdict,
    # and the falsifier finds no contradiction to strong Z or M. Every third
    # box has an exact zero entry, which no tolerance may flip.
    rng = np.random.default_rng(5)
    for k in range(20):
        mid = rng.uniform(-2, 2, (3, 3))
        rad = rng.uniform(0, 1, (3, 3))
        if k % 2:
            mid, rad = 2.5 * np.eye(3) - np.abs(mid) / 2, rad / 4
        if k % 3 == 0:
            i, j = divmod(int(rng.integers(9)), 3)
            mid[i, j] = rad[i, j] = 0.0
        base = lb.check_all(lb.from_midpoint_radius(mid, rad))
        tiny_box = lb.from_midpoint_radius(1e-13 * mid, 1e-13 * rad)
        tiny = lb.check_all(tiny_box)
        assert [v.holds for v in tiny] == [v.holds for v in base], (mid, rad)
        report = lb.cross_validate(
            tiny_box, [v for v in tiny if v.property in ("z", "m")], budget=64)
        assert report.consistent, (mid, rad)
