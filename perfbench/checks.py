"""Output checks that do not call lcpbox's deciders.

Every negative verdict must carry a realization inside the box and a
witness that meets the class's defining condition at that realization,
recomputed here with numpy. Boxes built strongly H with a positive
diagonal must hold every property. Cross-validation must not contradict
any verdict, and the exit code must be 0 exactly when every verdict holds.
"""

from __future__ import annotations

import numpy as np

from workloads import PROPERTIES, Box, Workload

# Membership slack, relative to the largest bound: realizations that
# interpolate between the bounds may land one rounding outside them.
_BOX_SLACK = 1e-12
# Relative residual allowed in the LP-derived witness conditions.
_RESIDUAL_TOL = 1e-8
# lcpbox classifies a k-by-k minor as zero when |det| <= PIVOT_TOL * k * ref^k
# with ref = max|entry| of the realization; allow twice that for the
# difference between its closed forms and numpy's LU determinant.
_PIVOT_TOL = 1e-10
_DET_MARGIN = 2.0


def strongly_h_with_positive_diagonal(box: Box) -> bool:
    """The comparison matrix is strictly diagonally dominant and the lower
    diagonal is positive: every realization is then an H-matrix with a
    positive diagonal, hence a P-matrix, and all five classes hold."""
    reach = np.maximum(np.abs(box.lower), np.abs(box.upper))
    np.fill_diagonal(reach, 0.0)
    low_diag = np.diag(box.lower)
    return bool(np.all(low_diag > 0.0)
                and np.all(low_diag > reach.sum(axis=1)))


def _indices(cert: dict, key: str) -> list[int]:
    return [int(i) - 1 for i in cert.get(key, [])]


def _lcp_solution_error(A: np.ndarray, z: np.ndarray, q: np.ndarray) -> str | None:
    """None when z != 0 solves LCP(A, q): z >= 0, w = Az + q >= 0, z.w = 0."""
    if not np.any(z != 0.0):
        return "witness z is zero"
    w = A @ z + q
    tol = _RESIDUAL_TOL * (float(np.max(np.abs(A))) * float(np.max(np.abs(z)))
                           + float(np.max(np.abs(q), initial=0.0)))
    if np.any(z < -tol) or np.any(w < -tol):
        return "z or w = Az + q is negative"
    if np.any(np.abs(z * w) > tol * float(np.max(z))):
        return "z and w = Az + q are not complementary"
    return None


def witness_error(prop: str, cert: dict, A: np.ndarray) -> str | None:
    """None when the certificate's witness shows that ``A`` lacks ``prop``."""
    n = A.shape[0]
    I = _indices(cert, "I")
    if prop != "principally-nondegenerate" and "x" not in cert:
        return "certificate has no witness"
    if prop == "semimonotone":
        x = np.asarray(cert["x"], dtype=float)
        if np.any(x < 0.0):
            return "x has a negative entry"
        if not np.all(A[np.ix_(I, I)] @ x < 0.0):
            return "A_II x is not negative"
        return None
    if prop == "column-sufficient":
        J = _indices(cert, "J")
        x = np.asarray(cert["x"], dtype=float)
        z = np.zeros(n)
        z[I] = x[:len(I)]
        z[J] = -x[len(I):]
        prod = z * (A @ z)
        tol = _RESIDUAL_TOL * float(np.max(np.abs(A))) * float(np.max(np.abs(z))) ** 2
        if np.any(prod > tol):
            return "z * Az has a positive entry"
        if not np.min(prod) < -tol:
            return "z * Az has no negative entry"
        return None
    if prop in ("r0", "r"):
        z = np.zeros(n)
        z[I] = np.asarray(cert["x"], dtype=float)
        t = float(cert.get("t", 0.0)) if prop == "r" else 0.0
        if t < 0.0:
            return "t is negative"
        return _lcp_solution_error(A, z, np.full(n, t))
    if prop == "principally-nondegenerate":
        S = _indices(cert, "support")
        if not S:
            return "certificate has no support"
        k = len(S)
        ref = float(np.max(np.abs(A)))
        det = float(np.linalg.det(A[np.ix_(S, S)]))
        if abs(det) > _DET_MARGIN * _PIVOT_TOL * k * ref**k:
            return f"det A_SS = {det:.3e} is not at the zero level"
        return None
    return f"no witness check for property {prop!r}"


def check_report(box: Box, report: dict, code: int,
                 workload: Workload) -> list[str]:
    """Every failed check of one box's report, as readable strings."""
    errors = []
    verdicts = report["properties"]
    all_hold = all(v["holds"] for v in verdicts)
    if tuple(v["property"] for v in verdicts) != PROPERTIES:
        errors.append("the report does not cover the five default properties")
    if code != (0 if all_hold else 1):
        errors.append(f"exit code {code} but all_hold={all_hold}")
    slack = _BOX_SLACK * max(1.0, float(np.max(np.abs(box.lower))),
                             float(np.max(np.abs(box.upper))))
    for v in verdicts:
        if v["holds"]:
            continue
        cert = v["certificate"] or {}
        if "realization" not in cert:
            errors.append(f"{v['property']}: no realization")
            continue
        A = np.asarray(cert["realization"], dtype=float)
        if not (np.all(A >= box.lower - slack) and np.all(A <= box.upper + slack)):
            errors.append(f"{v['property']}: realization outside the box")
            continue
        err = witness_error(v["property"], cert, A)
        if err:
            errors.append(f"{v['property']}: {err}")
    if workload.all_hold:
        if not strongly_h_with_positive_diagonal(box):
            errors.append("input box is not strongly H with a positive diagonal")
        if not all_hold:
            errors.append("a strongly H box with a positive diagonal has a False verdict")
    oracle = report.get("oracle")
    if workload.oracle_budget is None:
        if oracle is not None:
            errors.append("cross-validation ran without being asked for")
    else:
        if oracle is None:
            errors.append("cross-validation missing")
        else:
            entries = oracle["entries"]
            if [e["property"] for e in entries] != [v["property"] for v in verdicts]:
                errors.append("cross-validation does not cover every verdict")
            for e, v in zip(entries, verdicts):
                if e["strong_holds"] != v["holds"]:
                    errors.append(f"{v['property']}: cross-validation saw another verdict")
                if e["status"] == "contradiction":
                    errors.append(f"{v['property']}: cross-validation contradicts the verdict")
    return errors
