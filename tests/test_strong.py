import itertools

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.errors import DimensionCapError, FastPathUnavailableError
from lcpbox.intervals import sign_vectors
from lcpbox.linalg import batch_det_signs, minor_sign
from lcpbox.pointclasses import is_nonsingular, r0_witness, r_witness
from lcpbox.strong import (
    _SWEEP_CHUNK,
    ALL_STRONG_PROPERTIES,
    DEFAULT_CHECK_PROPERTIES,
    CheckConfig,
    _strongly_p,
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

    def test_identity_fast_failure_above_point_cap(self):
        # The fast path says "fails" at n = 4 under a cap of 3; its witness
        # comes from the general route, whose cap refuses it, exactly as
        # under fast_paths="off".
        box = lb.from_midpoint_radius(np.eye(4), 0.4 * np.ones((4, 4)))
        for fast_paths in ("auto", "off"):
            config = CheckConfig(fast_paths=fast_paths, cap=3)
            for strict in (False, True):
                with pytest.raises(DimensionCapError, match="cap 3"):
                    lb.strong_copositive(box, strict=strict, config=config)

    def test_identity_fast_failure_override_caps_keeps_witness(self):
        # With a cap of n the certificate is the lower bound's copositivity
        # minimizer, as on the general route.
        box = lb.from_midpoint_radius(np.eye(4), 0.4 * np.ones((4, 4)))
        config = CheckConfig(cap=4)
        v = lb.strong_copositive(box, config=config)
        assert v.method == "fast:identity-spectral-radius"
        x, value = v.certificate["x"], v.certificate["value"]
        assert "note" not in v.certificate and value < 0
        assert np.isclose(x.sum(), 1.0) and np.all(x >= 0)
        assert np.isclose(x @ box.lower @ x, value)

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
        assert box.contains(A, tol=1e-9) and minor_sign(A, (0, 1)) == 0

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


def _per_y_sweep(mid, rad, mid_sign):
    """Reference sign sweep: one batch_det_signs call per sign vector y."""
    z_rows = np.array(list(sign_vectors(mid.shape[0])))
    for a, y in enumerate(sign_vectors(mid.shape[0], half=True)):
        y_rad = y[:, None] * rad
        vertices = mid[None, :, :] - y_rad[None, :, :] * z_rows[:, None, :]
        bad = np.nonzero(batch_det_signs(vertices) * mid_sign <= 0)[0]
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
            ref = _per_y_sweep(mid, rad, mid_sign)
            got = _vertex_sign_sweep(mid, rad, mid_sign)
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


    def test_tiny_negative_diagonal_is_judged_against_the_box_scale(self):
        # Every entry is below 1, so a floor of 1 in the 1x1 zero rule
        # called lower[0, 0] = -5e-13 zero while semimonotonicity and the
        # falsifier, relative to the box's max|entry|, called it negative.
        box = lb.from_bounds([[-5e-13, 0], [0, 1e-3]], [[-5e-13, 0], [0, 2e-3]])
        verdicts = [lb.check_property(box, prop, GENERAL)
                    for prop in ("column-sufficient", "semimonotone")]
        for verdict in verdicts:
            assert not verdict.holds, verdict.property
        cs = verdicts[0]
        assert cs.method == "general:signed-block-systems"
        assert cs.certificate["I"] == (0,) and cs.certificate["J"] == ()
        assert np.array_equal(cs.certificate["realization"], box.lower)
        report = lb.cross_validate(box, verdicts, budget=64)
        assert [(e.status, e.samples) for e in report.entries] == [("confirmed", 1)] * 2


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

    def test_degenerate_box_takes_the_point_decider(self):
        # On a zero-radius box the strong sweep is the point decider's own:
        # the same verdict and, for a failure, the same I, x and t.
        rng = np.random.default_rng(17)
        failures = 0
        for n in (1, 2, 3, 4):
            for k in range(100):
                A = (rng.integers(-2, 3, (n, n)).astype(float) if k % 2
                     else rng.uniform(-1.0, 1.0, (n, n)))
                box = lb.degenerate(A)
                for strong, witness in ((lb.strong_r0, r0_witness),
                                        (lb.strong_r, r_witness)):
                    try:
                        hit = witness(A)
                    except lb.LpEngineError:
                        with pytest.raises(lb.LpEngineError):
                            strong(box)
                        continue
                    v = strong(box)
                    assert v.holds == (hit is None), A.tolist()
                    if hit is None:
                        continue
                    failures += 1
                    cert = v.certificate
                    assert cert["I"] == hit[0]
                    assert cert["x"].tobytes() == hit[1].tobytes()
                    assert cert.get("t", 0.0) == (hit[2] if len(hit) == 3 else 0.0)
        assert failures >= 200


class TestVerdictInfrastructure:
    def test_degenerate_box_equals_point_checks(self):
        # On [A, A] the strong systems are the point definitions: uniform
        # matrices, and integer ones (zero entries, singular blocks) of
        # which every third is scaled far from unit magnitude.
        rng = np.random.default_rng(3)
        mats = [rng.uniform(-2, 2, (n, n)) for n in rng.integers(1, 5, 25)]
        for k in range(300):
            n = 1 + k % 4
            A = rng.integers(-2, 3, (n, n)).astype(float)
            mats.append(A * 10.0 ** rng.uniform(-5, 3) if k % 3 == 0 else A)
        for A in mats:
            box = lb.degenerate(A)
            for prop in ALL_STRONG_PROPERTIES:
                point = POINT_EQUIV[prop](A)
                for config in (CheckConfig(), GENERAL):
                    verdict = lb.check_property(box, prop, config)
                    assert verdict.holds == point, (prop, config.fast_paths, A)

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
            rho = lb.spectral_radius_nonneg(N)
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


STRONGLY_P = "fast:strong-H-positive-diagonal"


def _strongly_h_box(rng, n, factor, row_scale=None, m_midpoint=False):
    """A box whose comparison matrix is diagonally dominant by ``factor``
    in every row, with a positive lower diagonal. Midpoint entry (1, 2) is
    positive and (2, 1) negative, so no sign scaling makes the midpoint a
    Z-matrix and only the strongly-H fast path can apply; with
    ``m_midpoint`` every off-diagonal midpoint entry is negative instead,
    so the midpoint is an M-matrix. Row i is scaled by ``row_scale[i]``
    when given."""
    mid = rng.uniform(-1.0, 1.0, (n, n))
    rad = rng.uniform(0.0, 0.5, (n, n))
    if m_midpoint:
        mid = -np.abs(mid)
    else:
        mid[0, 1] = abs(mid[0, 1]) + 0.1
        mid[1, 0] = -abs(mid[1, 0]) - 0.1
    reach = np.abs(mid) + rad
    np.fill_diagonal(reach, 0.0)
    diag_rad = rng.uniform(0.0, 0.1, n)
    np.fill_diagonal(rad, diag_rad)
    np.fill_diagonal(mid, diag_rad + factor * reach.sum(axis=1))
    if row_scale is not None:
        mid, rad = row_scale[:, None] * mid, row_scale[:, None] * rad
    return lb.from_midpoint_radius(mid, rad)


def _seeded_strongly_h_boxes(count, seed):
    """n = 2..6 in turn, dominance factor 1 + 10^U(-8, 0.3) per row, and
    every second box row-scaled by 10^U(-7, 0)."""
    rng = np.random.default_rng(seed)
    boxes = []
    for i in range(count):
        n = 2 + i % 5
        factor = 1.0 + 10.0 ** rng.uniform(-8.0, 0.3, n)
        scale = 10.0 ** rng.uniform(-7.0, 0.0, n) if i % 2 else None
        boxes.append(_strongly_h_box(rng, n, factor, scale))
    return boxes


class TestStronglyP:
    def test_agrees_with_general_route(self):
        taken = fell_through = 0
        for box in _seeded_strongly_h_boxes(60, seed=7):
            for prop in DEFAULT_CHECK_PROPERTIES:
                auto = lb.check_property(box, prop)
                off = lb.check_property(box, prop, GENERAL)
                assert auto.holds == off.holds, (box.n, prop, auto.method)
                taken += auto.method == STRONGLY_P
                fell_through += (prop == "principally-nondegenerate"
                                 and auto.method.startswith("general:"))
        assert taken >= 200
        assert fell_through > 0

    def test_falsifier_finds_no_contradiction(self):
        # All five at n = 2, where the falsifier walks every vertex, and
        # nondegeneracy, the verdict that rests on the minor bound, at
        # every n; the other point deciders are too slow for a unit test.
        checked = 0
        for box in _seeded_strongly_h_boxes(60, seed=11):
            props = (DEFAULT_CHECK_PROPERTIES if box.n == 2
                     else ("principally-nondegenerate",))
            verdicts = [v for v in (lb.check_property(box, p) for p in props)
                        if v.method == STRONGLY_P]
            report = lb.cross_validate(box, verdicts, budget=256, seed=0)
            assert all(e.status == "consistent" for e in report.entries)
            checked += len(verdicts)
        assert checked >= 50

    @pytest.mark.parametrize("mid,rad", [
        # a lower diagonal entry at zero
        ([[2.0, 0.5], [-0.5, 1.0]], [[0.1, 0.1], [0.1, 1.0]]),
        # a negative lower diagonal entry, comparison matrix M
        ([[2.0, 0.5], [-0.5, -3.0]], [[0.1, 0.1], [0.1, 0.1]]),
        # comparison matrix exactly singular
        ([[1.0, 1.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
        # comparison matrix nonsingular but not an M-matrix
        ([[1.0, 2.0], [-2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
        # an M-matrix by a relative margin of about 2e-10 only
        ([[0.92542788003501419, 0.62929647976354075],
          [8.0169742284908765e-04, 2.6212031836654994e-03]],
         [[0.02828948792001664, 0.2678418207442274],
          [0.00132142994448067, 0.00049807559954217]]),
    ])
    def test_does_not_apply(self, mid, rad):
        box = lb.from_midpoint_radius(mid, rad)
        config = CheckConfig()
        assert _strongly_p(box, config, []) is None
        assert _strongly_p(box, config, [], minors=True) is None
        for prop in DEFAULT_CHECK_PROPERTIES:
            assert lb.check_property(box, prop).method != STRONGLY_P

    def test_minor_bound_is_scale_invariant(self):
        # The minor bound compares ratios to the box's row maxima, so a
        # power-of-two scaling of the whole box, exact in floating point,
        # leaves the decision as it is, including on the boxes it rejects.
        rejected = 0
        for box in _seeded_strongly_h_boxes(60, seed=7):
            base = _strongly_p(box, CheckConfig(), [], minors=True)
            rejected += base is None
            for c in (2.0 ** -20, 2.0 ** 20):
                scaled = lb.from_bounds(c * box.lower, c * box.upper)
                assert _strongly_p(scaled, CheckConfig(), [], minors=True) == base
        assert rejected > 0

    def test_row_scaled_boxes_are_nondegenerate(self):
        # Every realization of these boxes is a P-matrix, half of them
        # row-scaled by down to 1e-7: the zero rule is relative to each
        # block's rows, so no minor is called zero on either route.
        for box in _seeded_strongly_h_boxes(300, seed=1):
            for config in (None, GENERAL):
                v = lb.check_property(box, "principally-nondegenerate", config)
                assert v.holds, (box.n, v.method)

    def test_row_scaled_m_midpoint_boxes_cross_validate(self):
        # The midpoint-M fast path and the falsifier's minor signs agree on
        # row-scaled boxes whose realizations are all P-matrices.
        rng = np.random.default_rng(17)
        for i in range(100):
            n = 2 + i % 4
            factor = 1.0 + 10.0 ** rng.uniform(-8.0, 0.3, n)
            box = _strongly_h_box(rng, n, factor, 10.0 ** rng.uniform(-7.0, 0.0, n),
                                  m_midpoint=True)
            auto = lb.check_property(box, "principally-nondegenerate")
            off = lb.check_property(box, "principally-nondegenerate", GENERAL)
            assert auto.holds and off.holds, (auto.method, off.method)
            report = lb.cross_validate(box, [auto], budget=256, seed=0)
            assert report.entries[0].status == "consistent", auto.method

    def test_fast_only_decides_benchmark_style_boxes(self):
        # The strongly H boxes of the general-n5to7 workload: factor 1.2-2.
        rng = np.random.default_rng(5)
        only = CheckConfig(fast_paths="only")
        for n in (5, 6, 7):
            box = _strongly_h_box(rng, n, rng.uniform(1.2, 2.0, n))
            for v in lb.check_all(box, DEFAULT_CHECK_PROPERTIES, only):
                assert v.holds and v.method == STRONGLY_P and v.certificate is None


WITNESSLESS_FAST = ("copositive", "strictly-copositive", "semimonotone",
                    "column-sufficient", "r0", "r")


def _same_certificate(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


def _identity_and_m_midpoint_boxes(seed):
    """Identity, M- and PSD-midpoint boxes in the style of criteria 6 and 7:
    the fast paths that give no witness of their own all fail on some."""
    rng = np.random.default_rng(seed)
    for i in range(120):
        n = 2 + i % 3
        if i % 3 == 0:
            rad = rng.uniform(0.0, rng.uniform(0.2, 2.4) / n, (n, n))
            yield lb.from_midpoint_radius(np.eye(n), rad)
        elif i % 3 == 1:
            N = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(N, 0.0)
            shift = lb.spectral_radius_nonneg(N) + rng.uniform(0.05, 1.0)
            yield lb.from_midpoint_radius(shift * np.eye(n) - N,
                                          rng.uniform(0.0, 0.6, (n, n)))
        else:
            B = rng.uniform(-1.0, 1.0, (n, n))
            rad = rng.uniform(0.0, 0.5, (n, n))
            yield lb.from_midpoint_radius(B @ B.T, rad + rad.T)


def _identity_midpoint_population(rhos):
    """400 identity-midpoint boxes, n = 2..5, with full, half-sparse,
    triangular and block-reducible radii scaled to the spectral radii in
    ``rhos`` in turn."""
    rng = np.random.default_rng(15)
    for i in range(400):
        n = 2 + i % 4
        R = rng.uniform(0.0, 1.0, (n, n))
        pattern = (i // 4) % 4
        if pattern == 1:
            R[np.add.outer(np.arange(n), np.arange(n)) % 2 == 1] = 0.0
        elif pattern == 2:
            R = np.triu(R)
        elif pattern == 3:
            R[n // 2:, :n // 2] = 0.0
        rho = rhos[i % len(rhos)]
        yield lb.from_midpoint_radius(np.eye(n), R * (rho / lb.spectral_radius_nonneg(R)))


class TestFastPathFailureRule:
    def test_fast_failure_certificate_is_the_general_one_plus_extras(self):
        # A fast path that fails without a witness of its own carries the
        # general route's certificate and only adds rho or the PSD sign s.
        seen = set()
        for box in _identity_and_m_midpoint_boxes(seed=6):
            for prop in WITNESSLESS_FAST:
                fast = lb.check_property(box, prop)
                if fast.holds or not fast.method.startswith("fast:"):
                    continue
                slow = lb.check_property(box, prop, GENERAL)
                assert not slow.holds
                extras = {k: v for k, v in fast.certificate.items()
                          if k not in slow.certificate}
                assert set(extras) <= {"rho", "s"}
                assert _same_certificate(fast.certificate,
                                         {**slow.certificate, **extras})
                seen.add((fast.method, tuple(sorted(extras))))
        assert seen == {
            ("fast:identity-spectral-radius", ("rho",)),
            ("fast:midpoint-M", ()),
            ("fast:midpoint-M0", ()),
            ("fast:midpoint-M-via-strong-H", ()),
            ("fast:midpoint-PSD-via-strong-PSD", ("s",)),
        }

    def test_marginal_fast_failure_is_overruled_by_the_general_route(self):
        # rho(radius) is within rho_tol of 1, so the identity path says
        # "fails" by the threshold; no minor of any realization is zero.
        box = lb.from_midpoint_radius(
            np.eye(2), [[0.9999999999999999, 0.0], [0.04001181649270628, 0.0]])
        v = lb.check_property(box, "principally-nondegenerate")
        assert v.holds and v.boundary and v.certificate is None
        assert v.method == "general:support-sign-determinants"
        assert v.notes == (
            "tolerance-marginal: fast:identity-spectral-radius said fails",)
        off = lb.check_property(box, "principally-nondegenerate", GENERAL)
        assert off.holds and not off.boundary and off.notes == ()

    def test_identity_population_near_rho_one_raises_no_verification_error(self):
        # Near rho = 1 the identity path can say "fails" where the lower
        # bound is semimonotone or column sufficient to tolerance; those
        # verdicts now hold via the general route. LP breakdowns on the
        # general route are a separate engine fault, and skipped here.
        overruled = 0
        for box in _identity_midpoint_population((1 - 2e-9, 1.0, 1 + 2e-9)):
            for prop in ("semimonotone", "column-sufficient"):
                try:
                    v = lb.check_property(box, prop)
                except lb.LpEngineError:
                    continue
                overruled += v.boundary and v.method.startswith("general:")
        assert overruled > 0

    @pytest.mark.parametrize("prop", FAST_PATH_PROPERTIES)
    def test_fast_failure_above_cap_raises(self, prop):
        # The general route gives the witness, so its cap stands, exactly
        # as under fast_paths="off" (the CLI's exit 3 is checked in
        # test_report_cli.py). The nondegeneracy path finds its own
        # leading-minor witness and needs no cap.
        box = lb.from_midpoint_radius(np.eye(4), 0.4 * np.ones((4, 4)))
        if prop == "principally-nondegenerate":
            v = lb.check_property(box, prop, CheckConfig(cap=3))
            assert not v.holds and v.method == "fast:identity-spectral-radius"
            return
        for fast_paths in ("auto", "off"):
            with pytest.raises(DimensionCapError, match="cap 3"):
                lb.check_property(box, prop, CheckConfig(fast_paths=fast_paths, cap=3))
