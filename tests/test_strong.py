import itertools

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.errors import DimensionCapError, FastPathUnavailableError
from lcpbox.intervals import sign_vectors
from lcpbox.linalg import batch_det_signs, det_sign
from lcpbox.pointclasses import is_nonsingular
from lcpbox.strong import (
    _SWEEP_CHUNK,
    ALL_STRONG_PROPERTIES,
    CheckConfig,
    _vertex_sign_sweep,
    sign_scaling_to_z,
    sign_scaling_to_z_two_sided,
)
from conftest import TRACKED, cs_sign_vertex_counterexample, random_box

GENERAL = CheckConfig(fast_paths="off")

FAST_PATH_PROPERTIES = ("copositive", "strictly-copositive", "semimonotone",
                        "principally-nondegenerate", "column-sufficient",
                        "r0", "r")

POINT_EQUIV = {
    "s": lb.is_S,
    "z": lb.is_Z,
    "m": lb.is_M,
    "h": lb.is_H,
    "pd": lambda A: lb.point_check(A, "pd"),
    "psd": lambda A: lb.point_check(A, "psd"),
    "copositive": lambda A: lb.is_copositive(A),
    "strictly-copositive": lambda A: lb.is_copositive(A, strict=True),
    "semimonotone": lb.is_semimonotone,
    "nonsingular": is_nonsingular,
    "principally-nondegenerate": lb.is_principally_nondegenerate,
    "column-sufficient": lb.is_column_sufficient,
    "r0": lb.is_R0,
    "r": lb.is_R,
}


class TestSimpleCharacterizations:
    def test_strong_s(self):
        assert lb.strong_s(lb.degenerate(np.eye(2))).holds
        box = lb.from_bounds([[1, -2], [-2, 1]], [[5, 0], [0, 5]])
        v = lb.strong_s(box)
        assert not v.holds
        assert np.array_equal(v.certificate["realization"], box.lower)
        assert lb.strong_s(lb.from_bounds([[2, -1], [-1, 2]], [[3, 0], [0, 3]])).holds

    def test_strong_z(self, box3_10):
        assert lb.strong_z(lb.degenerate(np.eye(2))).holds
        v = lb.strong_z(lb.from_bounds(np.eye(2), [[1, 0.1], [0, 1]]))
        assert not v.holds and v.certificate["entry"] == (0, 1)
        assert not lb.strong_z(box3_10).holds

    def test_strong_m(self):
        box = lb.from_bounds([[2, -1], [-1, 2]], [[3, -0.5], [-0.5, 3]])
        assert lb.strong_m(box).holds
        bad = lb.from_bounds([[2, -1], [-1, 2]], [[3, 0.5], [-0.5, 3]])
        assert not lb.strong_m(bad).holds

    def test_strong_h(self):
        box = lb.from_bounds([[1, -1], [-1, 1]], [[3, 1], [1, 3]])
        v = lb.strong_h(box)
        assert not v.holds
        A = v.certificate["realization"]
        assert box.contains(A) and not lb.is_H(A)
        assert lb.strong_h(lb.from_bounds([[2, -0.5], [-0.5, 2]], [[3, 0.5], [0.5, 3]])).holds

    def test_strong_pd_psd(self):
        box = lb.from_midpoint_radius([[2, 0], [0, 2]], np.ones((2, 2)))
        assert lb.strong_psd(box).holds
        v = lb.strong_pd(box)
        assert not v.holds
        assert v.certificate["min_eigenvalue"] <= 1e-9
        small = lb.from_midpoint_radius([[2, 0], [0, 2]], 0.4 * np.ones((2, 2)))
        assert lb.strong_pd(small).holds


class TestStrongCopositive:
    def test_identity_midpoint_threshold(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.5 * np.ones((2, 2)))
        v = lb.strong_copositive(box)
        assert v.holds and v.method == "fast:identity-spectral-radius"
        assert v.boundary  # rho lands exactly on 1
        vs = lb.strong_copositive(box, strict=True)
        assert not vs.holds

    def test_m_midpoint_path(self):
        box = lb.from_midpoint_radius([[2, -1], [-1, 2]], 0.1 * np.ones((2, 2)))
        v = lb.strong_copositive(box, strict=True)
        assert v.holds and v.method == "fast:midpoint-M"

    def test_degenerate_zero(self):
        z = lb.degenerate(np.zeros((2, 2)))
        assert lb.strong_copositive(z).holds
        assert not lb.strong_copositive(z, strict=True).holds

    def test_general_matches_fast_on_identity_midpoint(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            rad = rng.uniform(0, 1.4 / n, (n, n))
            box = lb.from_midpoint_radius(np.eye(n), rad)
            for strict in (False, True):
                fast = lb.strong_copositive(box, strict=strict)
                slow = lb.strong_copositive(box, strict=strict, config=GENERAL)
                assert fast.holds == slow.holds
                assert fast.method.startswith("fast:")
                assert slow.method.startswith("general:")


class TestStrongSemimonotone:
    def test_reference_box(self, box3_10, box3_15):
        assert lb.strong_semimonotone(box3_10).holds
        v = lb.strong_semimonotone(box3_15)
        assert not v.holds
        assert not lb.is_semimonotone(v.certificate["realization"])

    def test_identity_fast_path_boundary(self):
        box = lb.from_midpoint_radius(np.eye(3), np.ones((3, 3)) / 3)
        v = lb.strong_semimonotone(box)
        assert v.holds and v.method == "fast:identity-spectral-radius"
        assert v.boundary

    def test_m0_midpoint_path(self):
        box = lb.from_midpoint_radius([[1, -1], [0, 1]], 0.05 * np.ones((2, 2)))
        v = lb.strong_semimonotone(box)
        assert v.method == "fast:midpoint-M0"
        assert v.holds == lb.is_M0(box.lower)


class TestStrongNonsingular:
    def test_degenerate_identity(self):
        assert lb.strong_nonsingular(lb.degenerate(np.eye(2))).holds

    def test_half_radius_fails(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.5 * np.ones((2, 2)))
        v = lb.strong_nonsingular(box)
        assert not v.holds
        A = v.certificate["realization"]
        assert box.contains(A, tol=1e-9) and det_sign(A) == 0

    def test_smaller_radius_holds(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.4 * np.ones((2, 2)))
        assert lb.strong_nonsingular(box).holds

    def test_cap(self):
        box = lb.from_midpoint_radius(np.eye(15), np.zeros((15, 15)))
        with pytest.raises(DimensionCapError):
            lb.strong_nonsingular(box)


class TestSignScalings:
    def test_same_side_scaling_found(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = sign_scaling_to_z(M)
        assert s is not None
        scaled = np.outer(s, s) * M
        assert lb.is_Z(scaled)

    def test_same_side_scaling_impossible(self):
        # odd positive cycle cannot be sign-scaled to Z form
        M = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert sign_scaling_to_z(M) is None

    def test_two_sided_scaling(self):
        M = np.array([[-2.0, -1.0], [1.0, 2.0]])  # flip row 0
        pair = sign_scaling_to_z_two_sided(M)
        assert pair is not None
        y, z = pair
        scaled = np.outer(y, z) * M
        assert lb.is_Z(scaled) and np.all(np.diag(scaled) > 0)

    def test_two_sided_needs_nonzero_diagonal(self):
        assert sign_scaling_to_z_two_sided(np.array([[0.0, 1.0], [1.0, 1.0]])) is None


def _brute_scalable(M, two_sided):
    """Whether some sign vectors scale M to a Z-matrix (two-sided: with a
    positive diagonal), by trying all of them; the same tolerance as the
    parity search."""
    n = M.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(M))))
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    if two_sided:  # scaled[a, b] = D_{y_a} M D_{z_b}
        scaled = signs[:, None, :, None] * signs[None, :, None, :] * M
    else:  # scaled[a] = D_{s_a} M D_{s_a}
        scaled = signs[:, :, None] * signs[:, None, :] * M
    off = np.where(np.eye(n, dtype=bool), -np.inf, scaled)
    ok = np.all(off <= tol, axis=(-2, -1))
    if two_sided:
        ok &= np.all(np.diagonal(scaled, axis1=-2, axis2=-1) > tol, axis=-1)
    return bool(np.any(ok))


def _valid_scaling(M, y, z, two_sided):
    tol = 1e-12 * max(1.0, float(np.max(np.abs(M))))
    scaled = np.outer(y, z) * M
    off = scaled - np.diag(np.diag(scaled))
    return (set(np.concatenate([y, z]).tolist()) <= {-1.0, 1.0}
            and bool(np.all(off <= tol))
            and (not two_sided or bool(np.all(np.diag(scaled) > tol))))


class TestParitySearch:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        found = {False: 0, True: 0}
        for n in range(1, 7):
            for _ in range(60):
                pattern = rng.choice([-1.0, 0.0, 1.0], (n, n),
                                     p=[0.2, 0.6, 0.2])
                M = pattern * rng.uniform(0.5, 2.0, (n, n))
                if rng.random() < 0.5:
                    np.fill_diagonal(M, rng.choice([-1.0, 1.0], n))
                s = sign_scaling_to_z(M)
                assert (s is not None) == _brute_scalable(M, False)
                if s is not None:
                    assert _valid_scaling(M, s, s, False)
                    found[False] += 1
                pair = sign_scaling_to_z_two_sided(M)
                assert (pair is not None) == _brute_scalable(M, True)
                if pair is not None:
                    assert _valid_scaling(M, *pair, True)
                    found[True] += 1
        assert min(found.values()) > 20


class TestStrongNondegenerate:
    def test_reference_box_fails_at_midpoint(self, box3_10):
        v = lb.strong_principally_nondegenerate(box3_10)
        assert not v.holds
        assert v.certificate["support"] == (0,)

    def test_identity_fast_path(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.4 * np.ones((2, 2)))
        v = lb.strong_principally_nondegenerate(box)
        assert v.holds and v.method == "fast:identity-spectral-radius"

    def test_degenerate_counterexample(self):
        v = lb.strong_principally_nondegenerate(lb.degenerate([[0, -1], [0, 0]]))
        assert not v.holds

    def test_scaled_m_fast_path_with_witness(self):
        # midpoint is minus an M-matrix: two-sided scaling normalizes it
        mid = -np.array([[2.0, -1.0], [-1.0, 2.0]])
        box = lb.from_midpoint_radius(mid, 0.6 * np.ones((2, 2)))
        v = lb.strong_principally_nondegenerate(box)
        assert v.method == "fast:sign-scaled-midpoint-M"
        general = lb.strong_principally_nondegenerate(box, GENERAL)
        assert v.holds == general.holds
        if not v.holds:
            A = v.certificate["realization"]
            assert box.contains(A, tol=1e-9)
            assert not lb.is_principally_nondegenerate(A)

    def test_pd_midpoint_fast_path(self):
        # positive off-diagonal 3-cycle: not sign-scalable to Z form, so the
        # positive-definite midpoint path is the one that triggers
        mid = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        rad = 0.1 * np.ones((3, 3))
        box = lb.from_midpoint_radius(mid, rad)
        v = lb.strong_principally_nondegenerate(box)
        assert v.method == "fast:midpoint-PD-via-strong-PD"
        assert v.holds == lb.strong_principally_nondegenerate(box, GENERAL).holds

    def test_fast_general_agreement_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            rad = rng.uniform(0, 1.6 / n, (n, n))
            box = lb.from_midpoint_radius(np.eye(n), rad)
            fast = lb.strong_principally_nondegenerate(box)
            slow = lb.strong_principally_nondegenerate(box, GENERAL)
            assert fast.holds == slow.holds


def _per_y_sweep(mid, rad, mid_sign, floor):
    """Reference sign sweep: one batch_det_signs call per sign vector y."""
    z_rows = np.array(list(sign_vectors(mid.shape[0])))
    for a, y in enumerate(sign_vectors(mid.shape[0], half=True)):
        y_rad = y[:, None] * rad
        vertices = mid[None, :, :] - y_rad[None, :, :] * z_rows[:, None, :]
        bad = np.nonzero(batch_det_signs(vertices, scale=floor) * mid_sign <= 0)[0]
        if bad.size:
            j = int(bad[0])
            return a, y, z_rows[j], float(np.linalg.det(vertices[j]))
    return None


class TestVertexSignSweep:
    @pytest.mark.parametrize("k", [6, 7])
    def test_chunked_sweep_matches_per_y_sweep(self, k):
        # Integer blocks with a dominant diagonal and a sparse 0/1 radius:
        # many have no hit, and some have their first hit past the first
        # batch of y vectors.
        ys_per_call = _SWEEP_CHUNK // 2 ** k
        late = hits = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            mid = rng.integers(-1, 2, (k, k)).astype(float)
            np.fill_diagonal(mid, rng.integers(2, 4, k))
            rad = (rng.random((k, k)) < 0.15).astype(float)
            mid_sign = int(np.sign(np.linalg.det(mid)))
            for floor in (0.0, 3.0):
                ref = _per_y_sweep(mid, rad, mid_sign, floor)
                got = _vertex_sign_sweep(mid, rad, mid_sign, floor)
                if ref is None:
                    assert got is None
                    continue
                a, y, z, det = ref
                assert np.array_equal(got[0], y) and np.array_equal(got[1], z)
                assert got[2] == det
                hits += 1
                late += a >= ys_per_call
        assert hits > 0 and late > 0


class TestStrongColumnSufficient:
    def test_reference_boxes(self, box3_10, box3_15):
        assert lb.strong_column_sufficient(box3_10).holds
        v = lb.strong_column_sufficient(box3_15)
        assert not v.holds
        assert v.certificate["I"] == (0, 1, 2) and v.certificate["J"] == ()

    def test_reducible_radius_blocks_fast_path(self):
        box = lb.from_midpoint_radius(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
        v = lb.strong_column_sufficient(box)
        assert not v.holds
        assert any("radius reducible" in note for note in v.notes)
        assert v.method.startswith("general:")
        A = v.certificate["realization"]
        assert box.contains(A) and not lb.is_column_sufficient(A)

    def test_irreducible_identity_fast_path(self):
        box = lb.from_midpoint_radius(np.eye(2), 0.5 * np.ones((2, 2)))
        v = lb.strong_column_sufficient(box)
        assert v.holds and v.method == "fast:identity-spectral-radius"

    def test_psd_midpoint_fast_path(self):
        mid = np.array([[1.0, 1.0], [1.0, 1.0]])
        rad = 0.05 * np.ones((2, 2))
        box = lb.from_midpoint_radius(mid, rad)
        v = lb.strong_column_sufficient(box)
        assert v.method == "fast:midpoint-PSD-via-strong-PSD"
        assert v.holds == lb.strong_column_sufficient(box, GENERAL).holds

    def test_routes_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            box = random_box(rng, n, entry_scale=1.5, radius_scale=0.6)
            sys_v = lb.strong_column_sufficient(box, GENERAL)
            assert sys_v.holds == (cs_sign_vertex_counterexample(box) is None)

    def test_vertex_route_certificate(self):
        box = lb.from_midpoint_radius(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
        A = cs_sign_vertex_counterexample(box)
        assert A is not None and box.contains(A)
        assert not lb.is_column_sufficient(A)


class TestStrongR0AndR:
    def test_reference_boxes(self, box3_10, box3_15):
        for prop in ("r0", "r"):
            assert lb.check_property(box3_10, prop).holds
            v = lb.check_property(box3_15, prop)
            assert not v.holds
            assert v.certificate["I"] == (0, 1, 2)
            A = v.certificate["realization"]
            assert box3_15.contains(A, tol=1e-9)

    def test_degenerate_cases(self):
        z = lb.degenerate(np.zeros((2, 2)))
        assert not lb.strong_r0(z).holds
        assert not lb.strong_r(z).holds
        i2 = lb.degenerate(np.eye(2))
        assert lb.strong_r0(i2).holds and lb.strong_r(i2).holds

    def test_nilpotent_radius_fast_and_general(self):
        box = lb.from_midpoint_radius(np.eye(2), [[0.0, 2.0], [0.0, 0.0]])
        fast = lb.strong_r0(box)
        assert fast.holds and fast.method == "fast:identity-spectral-radius"
        slow = lb.strong_r0(box, GENERAL)
        assert slow.holds and slow.method.startswith("general:")
        assert lb.strong_r(box).holds == lb.strong_r(box, GENERAL).holds

    def test_m_midpoint_delegates_to_strong_h(self):
        box = lb.from_midpoint_radius([[2, -1], [-1, 2]], 0.2 * np.ones((2, 2)))
        v = lb.strong_r0(box)
        assert v.method == "fast:midpoint-M-via-strong-H"
        assert v.holds == lb.strong_r0(box, GENERAL).holds

    def test_r0_witness_realization_solves_system(self, box3_15):
        v = lb.strong_r0(box3_15)
        A = v.certificate["realization"]
        I = list(v.certificate["I"])
        x = v.certificate["x"]
        assert np.max(np.abs(A[np.ix_(I, I)] @ x)) <= 1e-7


class TestVerdictInfrastructure:
    def test_degenerate_box_equals_point_checks(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, (n, n))
            box = lb.degenerate(A)
            for prop in ALL_STRONG_PROPERTIES:
                verdict = lb.check_property(box, prop)
                assert verdict.holds == POINT_EQUIV[prop](A), prop

    def test_radius_monotonicity(self, mid3):
        for prop in TRACKED:
            failed = False
            for scale in (0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.3):
                box = lb.from_midpoint_radius(mid3, scale * np.abs(mid3))
                holds = lb.check_property(box, prop).holds
                if failed:
                    assert not holds, (prop, scale)
                failed = failed or not holds

    def test_strong_implications(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            box = random_box(rng, n, entry_scale=2.0, radius_scale=0.3)
            if lb.strong_m(box).holds:
                assert lb.strong_h(box).holds
            if lb.strong_pd(box).holds:
                assert lb.strong_psd(box).holds
            if lb.strong_r(box).holds:
                assert lb.strong_r0(box).holds

    def test_verify_certificate_rejects_tampering(self, box3_15):
        v = lb.strong_column_sufficient(box3_15)
        assert lb.verify_certificate(box3_15, v)
        v.certificate["realization"] = box3_15.upper + 1.0
        assert not lb.verify_certificate(box3_15, v)

    def test_fast_only_policy(self):
        only = CheckConfig(fast_paths="only")
        box = lb.from_midpoint_radius(np.eye(2), 0.3 * np.ones((2, 2)))
        assert lb.strong_semimonotone(box, only).holds
        general_box = lb.from_midpoint_radius([[0, -1], [2, 0]], 0.1 * np.ones((2, 2)))
        with pytest.raises(FastPathUnavailableError):
            lb.strong_semimonotone(general_box, only)

    def test_fast_only_raises_without_applicable_fast_path(self):
        only = CheckConfig(fast_paths="only")
        # Not Z-scalable, zero diagonal, not symmetric: no fast path applies.
        box = lb.from_midpoint_radius([[0, -1], [2, 0]], 0.1 * np.ones((2, 2)))
        for prop in FAST_PATH_PROPERTIES:
            with pytest.raises(FastPathUnavailableError, match=prop):
                lb.check_property(box, prop, only)

    def test_fast_paths_off_never_reports_fast_method(self):
        n = 3
        M = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        D = np.diag([1.0, -1.0, 1.0])
        boxes = [
            lb.from_midpoint_radius(np.eye(n), 0.2 * np.ones((n, n))),
            lb.from_midpoint_radius(np.eye(n), 0.6 * np.ones((n, n))),
            lb.from_midpoint_radius(M, 0.1 * np.ones((n, n))),
            lb.from_midpoint_radius(-M, 0.1 * np.ones((n, n))),
            lb.from_midpoint_radius(D @ M @ D, 0.7 * np.ones((n, n))),
            lb.from_midpoint_radius(np.ones((n, n)) + np.eye(n),
                                    0.05 * np.ones((n, n))),
        ]
        fast = set()
        for box in boxes:
            for prop in ALL_STRONG_PROPERTIES:
                auto = lb.check_property(box, prop)
                off = lb.check_property(box, prop, GENERAL)
                assert not off.method.startswith("fast:"), (prop, off.method)
                assert off.holds == auto.holds, prop
                if auto.method.startswith("fast:"):
                    fast.add(prop)
        assert fast == set(FAST_PATH_PROPERTIES)

    def test_verify_certificate_requires_a_realization(self, box3_15):
        for cert in (None, {"I": (0, 1, 2), "x": np.ones(3)}):
            v = lb.PropertyVerdict("r0", False, "general:index-systems", cert, 0.0)
            assert not lb.verify_certificate(box3_15, v)
        holds = lb.PropertyVerdict("r0", True, "general:index-systems", None, 0.0)
        assert lb.verify_certificate(box3_15, holds)

    def test_fast_general_agreement_on_m_midpoint_boxes(self):
        rng = np.random.default_rng(12345)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            N = rng.uniform(0, 1, (n, n))
            rho = lb.spectral_radius_nonneg(N).rho
            s = rho * (1.0 + rng.uniform(0.05, 1.0))
            mid = s * np.eye(n) - N
            rad = rng.uniform(0, rng.uniform(0.05, 0.6) * s, (n, n))
            box = lb.from_midpoint_radius(mid, rad)
            cases = [
                lambda c: lb.strong_copositive(box, False, c),
                lambda c: lb.strong_copositive(box, True, c),
                lambda c: lb.strong_semimonotone(box, c),
                lambda c: lb.strong_principally_nondegenerate(box, c),
                lambda c: lb.strong_column_sufficient(box, c),
                lambda c: lb.strong_r0(box, c),
                lambda c: lb.strong_r(box, c),
            ]
            for run in cases:
                assert run(None).holds == run(GENERAL).holds

    def test_check_all_default_properties(self, box3_10):
        verdicts = lb.check_all(box3_10)
        assert [v.property for v in verdicts] == list(ALL_STRONG_PROPERTIES)

    def test_elapsed_recorded(self, box3_10):
        v = lb.strong_semimonotone(box3_10)
        assert v.elapsed >= 0.0
