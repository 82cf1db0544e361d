"""Acceptance suite.

Each test implements one acceptance criterion end to end at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see the
lines as they complete).
"""

import time

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.oracle import falsify
from lcpbox.pointclasses import column_sufficiency_witness, is_nonsingular
from lcpbox.strong import ALL_STRONG_PROPERTIES, CheckConfig
from conftest import TRACKED, cs_sign_vertex_counterexample

GENERAL = CheckConfig(fast_paths="off")

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


def _announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_box_at_10_percent(box3_10):
    t0 = time.perf_counter()
    holds = {p: lb.check_property(box3_10, p).holds
             for p in TRACKED + ("principally-nondegenerate",)}
    elapsed = time.perf_counter() - t0
    expected = {"semimonotone": True, "column-sufficient": True, "r": True,
                "r0": True, "principally-nondegenerate": False}
    ok = holds == expected and elapsed < 1.0
    _announce(1, ok, f"verdicts {holds}, {elapsed:.3f}s (< 1s)")


def test_criterion_2_reference_box_at_15_percent(box3_15):
    t0 = time.perf_counter()
    verdicts = {p: lb.check_property(box3_15, p) for p in TRACKED}
    elapsed = time.perf_counter() - t0
    all_false = all(not v.holds for v in verdicts.values())
    witness_ok = all(
        verdicts[p].certificate["I"] == (0, 1, 2)
        and verdicts[p].certificate.get("J", ()) == ()
        for p in ("column-sufficient", "r", "r0")
    )
    ok = all_false and witness_ok and elapsed < 1.0
    _announce(2, ok,
              f"all four fail, failing index sets I={{1,2,3}}, J=empty, "
              f"{elapsed:.3f}s (< 1s)")


def test_criterion_3_radius_sweep_table(qp_ref):
    absB, absC = np.abs(qp_ref.B), np.abs(qp_ref.C)
    rows = [
        ((0.0, 1 / 4), {"semimonotone", "column-sufficient", "r", "r0"}),
        ((0.0, 1 / 3), {"semimonotone", "r", "r0"}),
        ((0.0, 9 / 10), {"semimonotone", "r", "r0"}),
        ((0.0, 1.0), {"semimonotone"}),
        ((1 / 10, 1 / 10), {"semimonotone", "column-sufficient", "r", "r0"}),
        ((1 / 10, 1 / 5), {"semimonotone", "column-sufficient", "r", "r0"}),
        ((1 / 10, 1 / 2), {"semimonotone", "r", "r0"}),
        ((1 / 5, 1 / 5), set()),
    ]
    t0 = time.perf_counter()
    mismatches = []
    for (fb, fc), expected in rows:
        box = lb.qp_to_interval_lcp(qp_ref, fb * absB, fc * absC)
        got = {p for p in TRACKED if lb.check_property(box, p).holds}
        if got != expected:
            mismatches.append((fb, fc, got, expected))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    _announce(3, ok, f"8 rows x 4 properties exact, {elapsed:.2f}s (< 10s); "
                     f"mismatches={mismatches}")


def test_criterion_4_converted_qp_point_matrix(qp_ref):
    inst = lb.qp_to_lcp(qp_ref)
    A = inst.A
    point_ok = (
        lb.is_semimonotone(A)
        and lb.is_column_sufficient(A)
        and lb.is_R(A)
        and lb.is_R0(A)
        and not lb.is_principally_nondegenerate(A)
    )
    sols = lb.solve_lcp_enumerate(lb.LcpInstance(A, [10, 9, 1, 1]))
    ok = point_ok and len(sols) == 1
    _announce(4, ok, f"point classes as expected, {len(sols)} solution "
                     f"by basis enumeration (expected exactly 1)")


def test_criterion_5_counterexample_fidelity():
    A = np.array([[0.0, -1.0], [0.0, 0.0]])
    m0_ok = lb.is_M0(A)
    w = column_sufficiency_witness(A)
    witness_ok = (
        w is not None
        and w[0] == (0, 1)
        and w[1] == ()
        and np.allclose(w[2], [1.0, 1.0])
    )
    box = lb.from_midpoint_radius(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
    verdict = lb.strong_column_sufficient(box)
    box_ok = (
        not verdict.holds
        and not lb.is_irreducible(box.radius)
        and any("radius reducible" in note for note in verdict.notes)
    )
    ok = m0_ok and witness_ok and box_ok
    _announce(5, ok, "M0 counterexample witness x=(1,1), I={1,2}; reducible-"
                     "radius box fails strong column sufficiency with the "
                     "fast path reported inapplicable")


def test_criterion_6_spectral_threshold_fast_paths():
    rng = np.random.default_rng(2024)
    checks = 0
    disagreements = []
    rho_low = rho_high = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        spread = rng.uniform(0.2, 2.4)
        rad = rng.uniform(0.0, spread / n, (n, n))
        box = lb.from_midpoint_radius(np.eye(n), rad)
        rho = lb.spectral_radius_nonneg(rad).rho
        if rho <= 1.0:
            rho_low += 1
        else:
            rho_high += 1
        cases = [
            ("copositive", lambda c: lb.strong_copositive(box, False, c)),
            ("strictly-copositive", lambda c: lb.strong_copositive(box, True, c)),
            ("semimonotone", lambda c: lb.strong_semimonotone(box, c)),
            ("principally-nondegenerate",
             lambda c: lb.strong_principally_nondegenerate(box, c)),
            ("r0", lambda c: lb.strong_r0(box, c)),
            ("r", lambda c: lb.strong_r(box, c)),
        ]
        for name, run in cases:
            fast = run(None)
            slow = run(GENERAL)
            checks += 1
            assert fast.method.startswith("fast:identity"), (name, fast.method)
            if fast.holds != slow.holds:
                disagreements.append((name, n, rho))
    ok = not disagreements and rho_low > 20 and rho_high > 20
    _announce(6, ok, f"{checks} fast/general comparisons on identity-midpoint "
                     f"boxes ({rho_low} with rho<=1, {rho_high} with rho>1), "
                     f"disagreements={disagreements}")


def test_criterion_7_column_sufficiency_route_equivalence():
    rng = np.random.default_rng(77)
    disagreements = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        mid = rng.uniform(-2, 2, (n, n))
        rad = rng.uniform(0, 1, (n, n))
        box = lb.from_midpoint_radius(mid, rad)
        via_systems = lb.strong_column_sufficient(box, GENERAL)
        via_vertices = cs_sign_vertex_counterexample(box) is None
        if via_systems.holds != via_vertices:
            disagreements.append((n, mid.tolist()))
    ok = not disagreements
    _announce(7, ok, f"200 boxes, signed-system route vs sign-vertex route, "
                     f"disagreements={len(disagreements)}")


def test_criterion_8_oracle_consistency():
    rng = np.random.default_rng(999)
    t0 = time.perf_counter()
    contradictions = []
    for k in range(500):
        mid = rng.uniform(-2.0, 2.0, (3, 3))
        rad = rng.uniform(0.0, 1.0, (3, 3))
        box = lb.from_midpoint_radius(mid, rad)
        verdicts = [lb.check_property(box, p)
                    for p in TRACKED + ("principally-nondegenerate",)]
        outcome = lb.cross_validate(box, verdicts, budget=2000, seed=31337)
        if not outcome.consistent:
            contradictions.append((k, [e.property for e in outcome.contradictions]))
    elapsed = time.perf_counter() - t0
    ok = not contradictions and elapsed < 60.0
    _announce(8, ok, f"500 boxes cross-validated in {elapsed:.1f}s (< 60s), "
                     f"contradictions={contradictions}")


def test_criterion_9_degenerate_box_identity():
    rng = np.random.default_rng(4242)
    disagreements = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-2.0, 2.0, (n, n))
        box = lb.degenerate(A)
        for prop in ALL_STRONG_PROPERTIES:
            strong = lb.check_property(box, prop).holds
            point = POINT_EQUIV[prop](A)
            if strong != point:
                disagreements.append((prop, n))
    ok = not disagreements
    _announce(9, ok, f"200 radius-0 boxes x {len(ALL_STRONG_PROPERTIES)} "
                     f"properties, disagreements={disagreements}")


def test_criterion_10_class_implications():
    rng = np.random.default_rng(55)
    violations = []

    def implied(premise, conclusions, A, tag):
        if premise(A):
            for name, conc in conclusions:
                if not conc(A):
                    violations.append((tag, name))

    for _ in range(500):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-2.0, 2.0, (n, n))
        implied(lb.is_M, [("m0", lb.is_M0), ("h", lb.is_H)], A, "m")
        implied(lb.is_M0, [("z", lb.is_Z)], A, "m0")
        implied(
            lb.is_P,
            [
                ("principally-nondegenerate", lb.is_principally_nondegenerate),
                ("column-sufficient", lb.is_column_sufficient),
                ("semimonotone", lb.is_semimonotone),
                ("r0", lb.is_R0),
                ("r", lb.is_R),
                ("s", lb.is_S),
            ],
            A,
            "p",
        )
        implied(lambda M: lb.point_check(M, "pd"),
                [("strictly-copositive", lambda M: lb.is_copositive(M, True))],
                A, "pd")
        implied(lambda M: lb.is_copositive(M, True),
                [("copositive", lb.is_copositive)], A, "strictly-copositive")
        implied(lambda M: lb.point_check(M, "psd"),
                [("column-sufficient", lb.is_column_sufficient)], A, "psd")
        implied(lb.is_R, [("r0", lb.is_R0)], A, "r")
    ok = not violations
    _announce(10, ok, f"500 matrices, class-implication violations={violations}")
