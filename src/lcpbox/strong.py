"""Robust ("strong") matrix-class checks for interval matrices.

A property holds strongly when every realization inside the box has it.
Each checker implements the exact finite characterization of its strong
property, guarded by polynomially recognizable fast paths (midpoint an
M/M0-matrix, exact identity midpoint with a spectral-radius threshold,
positive (semi)definite midpoint). Every verdict records which code path
decided it; every negative verdict carries a certificate with a concrete
realization in the box (or enough data to reconstruct one), re-verified
against the point-level definitions before reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import pointclasses as pc
from .errors import (
    CertificateVerificationError,
    DimensionCapError,
    FastPathUnavailableError,
)
from .intervals import (
    IntervalMatrix,
    comparison_matrix,
    disjoint_index_pairs,
    nonempty_subsets,
    sign_vectors,
    signed_vertex,
)
from .linalg import (
    batch_det_signs,
    determinant,
    is_irreducible,
    is_positive_definite,
    is_positive_semidefinite,
    minor_sign,
    spectral_radius_nonneg,
    symmetric_part,
)
from .lp import GE, LE, LinearSystem, feasible_positive_strict, solve_feasibility
from .tolerances import (
    CAP_INDEX_PAIRS,
    CAP_NONDEGENERATE,
    CAP_POINT_ENUM,
    CAP_SIGN_VERTEX,
    RHO_TOL,
)

__all__ = [
    "CheckConfig",
    "PropertyVerdict",
    "ALL_STRONG_PROPERTIES",
    "DEFAULT_CHECK_PROPERTIES",
    "strong_s",
    "strong_z",
    "strong_m",
    "strong_h",
    "strong_pd",
    "strong_psd",
    "strong_copositive",
    "strong_semimonotone",
    "strong_nonsingular",
    "strong_principally_nondegenerate",
    "strong_column_sufficient",
    "strong_r0",
    "strong_r",
    "check_property",
    "check_all",
    "verify_certificate",
]

ALL_STRONG_PROPERTIES = (
    "s",
    "z",
    "m",
    "h",
    "pd",
    "psd",
    "copositive",
    "strictly-copositive",
    "semimonotone",
    "nonsingular",
    "principally-nondegenerate",
    "column-sufficient",
    "r0",
    "r",
)

# The tracked set the report examples revolve around.
DEFAULT_CHECK_PROPERTIES = (
    "semimonotone",
    "column-sufficient",
    "r",
    "r0",
    "principally-nondegenerate",
)

@dataclass(frozen=True)
class CheckConfig:
    """Tolerances, fast-path policy and enumeration caps for the checkers."""

    rho_tol: float = RHO_TOL
    fast_paths: str = "auto"  # "auto" | "off" | "only"
    cap_sign_vertex: int = CAP_SIGN_VERTEX
    cap_index_pairs: int = CAP_INDEX_PAIRS
    cap_nondegenerate: int = CAP_NONDEGENERATE
    cap_point: int = CAP_POINT_ENUM
    override_caps: bool = False
    verify_certificates: bool = True
    # Point re-verification of certificates is exponential for some
    # properties; skip it above this dimension (containment still checked).
    verify_cap: int = 6

    def __post_init__(self):
        if self.fast_paths not in ("auto", "off", "only"):
            raise ValueError("fast_paths must be one of 'auto', 'off', 'only'")

    def with_all_caps(self, cap: int) -> "CheckConfig":
        return replace(
            self,
            cap_sign_vertex=cap,
            cap_index_pairs=cap,
            cap_nondegenerate=cap,
            cap_point=cap,
        )


@dataclass
class PropertyVerdict:
    """Outcome of one strong-property check.

    ``certificate`` is always present when ``holds`` is False; its
    ``realization`` entry (when set) is a concrete matrix inside the box
    for which the point property fails. ``boundary`` flags spectral-radius
    comparisons that landed within tolerance of the threshold.
    """

    property: str
    holds: bool
    method: str
    certificate: dict | None
    elapsed: float
    boundary: bool = False
    notes: tuple[str, ...] = ()


def _finish(prop, holds, method, certificate, t0, boundary=False, notes=()):
    return PropertyVerdict(
        property=prop,
        holds=bool(holds),
        method=method,
        certificate=certificate,
        elapsed=time.perf_counter() - t0,
        boundary=boundary,
        notes=tuple(notes),
    )


def _cfg(config: CheckConfig | None) -> CheckConfig:
    return config if config is not None else CheckConfig()


def _ztol(box: IntervalMatrix) -> float:
    return 1e-12 * max(1.0, float(np.max(np.abs(box.upper))),
                       float(np.max(np.abs(box.lower))))


def _is_identity(M: np.ndarray) -> bool:
    return bool(np.array_equal(M, np.eye(M.shape[0])))


def _rho_threshold(rho: float, strict: bool, tol: float) -> tuple[bool, bool]:
    """(holds, boundary) for rho <= 1 (strict: rho < 1) with tolerance."""
    boundary = abs(rho - 1.0) <= tol
    holds = (rho < 1.0 - tol) if strict else (rho <= 1.0 + tol)
    return holds, boundary


def _is_symmetric_box(box: IntervalMatrix) -> bool:
    tol = _ztol(box)
    return bool(
        np.all(np.abs(box.midpoint - box.midpoint.T) <= tol)
        and np.all(np.abs(box.radius - box.radius.T) <= tol)
    )


# ---------------------------------------------------------------------------
# Sign scalings that bring the midpoint to Z form
# ---------------------------------------------------------------------------


def _entry_requirement(value: float, tol: float) -> int | None:
    """Required product of the two scaling signs so value*product <= 0."""
    if value > tol:
        return -1
    if value < -tol:
        return 1
    return None


def sign_scaling_to_z(M: np.ndarray) -> np.ndarray | None:
    """Find s in {-1,+1}^n with D_s M D_s a Z-matrix, or None.

    The requirement s_i s_j = -sign(M_ij) on nonzero off-diagonal entries
    is a parity constraint per edge, so consistency is decided by sign
    propagation over connected components. Complete: if any valid s
    exists, one is found.
    """
    n = M.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(M), initial=0.0)))
    req = {}
    for i in range(n):
        for j in range(i + 1, n):
            r1 = _entry_requirement(M[i, j], tol)
            r2 = _entry_requirement(M[j, i], tol)
            if r1 is not None and r2 is not None and r1 != r2:
                return None
            r = r1 if r1 is not None else r2
            if r is not None:
                req[(i, j)] = r
    s = np.zeros(n)
    for root in range(n):
        if s[root] != 0:
            continue
        s[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for (a, b), r in req.items():
                if a == i or b == i:
                    other = b if a == i else a
                    want = r * s[i]
                    if s[other] == 0:
                        s[other] = want
                        stack.append(other)
                    elif s[other] != want:
                        return None
    return s


def sign_scaling_to_z_two_sided(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Find (y, z) in {-1,+1}^n x {-1,+1}^n with D_y M D_z a Z-matrix with
    positive diagonal, or None. Parity propagation over the bipartite
    row/column graph; complete."""
    n = M.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(M), initial=0.0)))
    req = {}  # (row i, col j) -> required y_i * z_j
    for i in range(n):
        if abs(M[i, i]) <= tol:
            return None  # positive diagonal unreachable
        req[(i, i)] = 1 if M[i, i] > 0 else -1
    for i in range(n):
        for j in range(n):
            if i != j:
                r = _entry_requirement(M[i, j], tol)
                if r is not None:
                    req[(i, j)] = r
    y = np.zeros(n)
    z = np.zeros(n)
    for root in range(n):
        if y[root] != 0:
            continue
        y[root] = 1.0
        stack = [("y", root)]
        while stack:
            side, i = stack.pop()
            for (a, b), r in req.items():
                if side == "y" and a == i:
                    want = r * y[i]
                    if z[b] == 0:
                        z[b] = want
                        stack.append(("z", b))
                    elif z[b] != want:
                        return None
                elif side == "z" and b == i:
                    want = r * z[i]
                    if y[a] == 0:
                        y[a] = want
                        stack.append(("y", a))
                    elif y[a] != want:
                        return None
    y[y == 0] = 1.0
    z[z == 0] = 1.0
    return y, z


# ---------------------------------------------------------------------------
# Simple characterizations: S, Z, M, H, PD, PSD
# ---------------------------------------------------------------------------


def strong_s(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong S: the lower bound admits x > 0 with (lower) x > 0."""
    t0 = time.perf_counter()
    res = feasible_positive_strict(box.lower, strict_all=True)
    if res.feasible:
        cert = {"x": res.witness}
        return _finish("s", True, "definition:lower-bound-system", cert, t0)
    cert = {"realization": box.lower.copy()}
    return _finish("s", False, "definition:lower-bound-system", cert, t0,
                   notes=("lower bound matrix is not an S-matrix",))


def strong_z(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong Z: the upper bound is a Z-matrix."""
    t0 = time.perf_counter()
    up = box.upper
    tol = _ztol(box)
    off = up - np.diag(np.diag(up))
    bad = np.argwhere(off > tol)
    if bad.size == 0:
        return _finish("z", True, "definition:upper-bound", None, t0)
    i, j = (int(bad[0][0]), int(bad[0][1]))
    cert = {"realization": up.copy(), "entry": (i, j)}
    return _finish("z", False, "definition:upper-bound", cert, t0)


def strong_m(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong M: lower bound an M-matrix and upper off-diagonal nonpositive."""
    t0 = time.perf_counter()
    tol = _ztol(box)
    off = box.upper - np.diag(np.diag(box.upper))
    bad = np.argwhere(off > tol)
    if bad.size > 0:
        i, j = (int(bad[0][0]), int(bad[0][1]))
        cert = {"realization": box.upper.copy(), "entry": (i, j)}
        return _finish("m", False, "definition:lower-M-and-upper-Z", cert, t0,
                       notes=("upper bound has a positive off-diagonal entry",))
    if pc.is_M(box.lower):
        return _finish("m", True, "definition:lower-M-and-upper-Z", None, t0)
    cert = {"realization": box.lower.copy()}
    return _finish("m", False, "definition:lower-M-and-upper-Z", cert, t0,
                   notes=("lower bound matrix is not an M-matrix",))


def _min_magnitude_realization(box: IntervalMatrix) -> np.ndarray:
    """The realization whose point comparison matrix equals the box's."""
    A = np.where(np.abs(box.lower) >= np.abs(box.upper), box.lower, box.upper)
    n = box.n
    for i in range(n):
        lo, hi = box.lower[i, i], box.upper[i, i]
        if lo <= 0.0 <= hi:
            A[i, i] = 0.0
        elif lo > 0.0:
            A[i, i] = lo
        else:
            A[i, i] = hi
    return A


def strong_h(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong H: the box comparison matrix is an M-matrix."""
    t0 = time.perf_counter()
    C = comparison_matrix(box)
    if pc.is_M(C):
        return _finish("h", True, "definition:comparison-matrix", None, t0)
    cert = {"realization": _min_magnitude_realization(box),
            "comparison_matrix": C}
    return _finish("h", False, "definition:comparison-matrix", cert, t0,
                   notes=("box comparison matrix is not an M-matrix",))


def _definiteness_vertices(box: IntervalMatrix, config: CheckConfig,
                           semidefinite: bool):
    """Shared sign-vertex sweep for strong PD / strong PSD."""
    n = box.n
    if n > config.cap_sign_vertex and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds sign-vertex cap {config.cap_sign_vertex}"
        )
    mid_s = symmetric_part(box.midpoint)
    rad_s = symmetric_part(box.radius)
    test = is_positive_semidefinite if semidefinite else is_positive_definite
    for s in sign_vectors(n, half=True):
        vertex_sym = mid_s - np.outer(s, s) * rad_s
        if not test(vertex_sym):
            realization = signed_vertex(box, s, s)
            lam = float(np.min(np.linalg.eigvalsh(vertex_sym)))
            return s, realization, lam
    return None


def strong_pd(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong positive definiteness: every sign-vertex realization is PD."""
    config = _cfg(config)
    t0 = time.perf_counter()
    hit = _definiteness_vertices(box, config, semidefinite=False)
    if hit is None:
        return _finish("pd", True, "general:sign-vertex-definiteness", None, t0)
    s, realization, lam = hit
    cert = {"s": s, "realization": realization, "min_eigenvalue": lam}
    return _finish("pd", False, "general:sign-vertex-definiteness", cert, t0)


def strong_psd(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong positive semidefiniteness: every sign-vertex realization is PSD."""
    config = _cfg(config)
    t0 = time.perf_counter()
    hit = _definiteness_vertices(box, config, semidefinite=True)
    if hit is None:
        return _finish("psd", True, "general:sign-vertex-definiteness", None, t0)
    s, realization, lam = hit
    cert = {"s": s, "realization": realization, "min_eigenvalue": lam}
    return _finish("psd", False, "general:sign-vertex-definiteness", cert, t0)


# ---------------------------------------------------------------------------
# Copositivity
# ---------------------------------------------------------------------------


def strong_copositive(box: IntervalMatrix, strict: bool = False,
                      config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong (strict) copositivity: equivalent to (strict) copositivity of
    the lower bound. Quadratic-form classes see only symmetric parts, so
    the fast paths run on the symmetrized midpoint and radius."""
    config = _cfg(config)
    prop = "strictly-copositive" if strict else "copositive"
    t0 = time.perf_counter()
    mid_s = symmetric_part(box.midpoint)
    rad_s = symmetric_part(box.radius)
    lower_s = mid_s - rad_s
    notes: list[str] = []

    if config.fast_paths != "off":
        if _is_identity(mid_s):
            rho = spectral_radius_nonneg(rad_s).rho
            holds, boundary = _rho_threshold(rho, strict, config.rho_tol)
            cert = None
            if not holds:
                value, x = pc.copositive_minimum(lower_s, cap=config.cap_point,
                                                 override_cap=config.override_caps)
                cert = {"realization": box.lower.copy(), "x": x, "value": value,
                        "rho": rho}
            else:
                cert = {"rho": rho}
            return _finish(prop, holds, "fast:identity-spectral-radius", cert,
                           t0, boundary=boundary)
        if pc.is_M(mid_s):
            ok = pc.is_M(lower_s) if strict else pc.is_M0(lower_s)
            cert = None
            if not ok:
                value, x = pc.copositive_minimum(lower_s, cap=config.cap_point,
                                                 override_cap=config.override_caps)
                cert = {"realization": box.lower.copy(), "x": x, "value": value}
            return _finish(prop, ok, "fast:midpoint-M", cert, t0)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                f"no fast path applies to strong {prop} for this box"
            )

    value, x = pc.copositive_minimum(lower_s, cap=config.cap_point,
                                     override_cap=config.override_caps)
    slack = 1e-9 * float(np.max(np.abs(lower_s), initial=0.0))
    holds = value > slack if strict else value >= -slack
    cert: dict | None
    if holds:
        cert = {"minimum": value, "x": x}
    else:
        cert = {"realization": box.lower.copy(), "x": x, "value": value}
    return _finish(prop, holds, "general:lower-bound-copositivity", cert, t0,
                   notes=notes)


# ---------------------------------------------------------------------------
# Semimonotonicity
# ---------------------------------------------------------------------------


def strong_semimonotone(box: IntervalMatrix,
                        config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong semimonotonicity: equivalent to semimonotonicity of the lower
    bound; decided by a spectral threshold when the midpoint is the
    identity, or through the M0 route when the midpoint is an M0-matrix."""
    config = _cfg(config)
    t0 = time.perf_counter()
    mid, lower = box.midpoint, box.lower

    if config.fast_paths != "off":
        if _is_identity(mid):
            rho = spectral_radius_nonneg(box.radius).rho
            holds, boundary = _rho_threshold(rho, False, config.rho_tol)
            cert = {"rho": rho}
            if not holds:
                cert = _semimonotone_false_cert(box, config)
                cert["rho"] = rho
            return _finish("semimonotone", holds, "fast:identity-spectral-radius",
                           cert, t0, boundary=boundary)
        if pc.is_M0(mid):
            ok = pc.is_M0(lower)
            cert = None
            if not ok:
                cert = _semimonotone_false_cert(box, config)
            return _finish("semimonotone", ok, "fast:midpoint-M0", cert, t0)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                "no fast path applies to strong semimonotonicity for this box"
            )

    witness = pc.semimonotone_witness(lower, cap=config.cap_point,
                                      override_cap=config.override_caps)
    if witness is None:
        return _finish("semimonotone", True, "general:lower-bound-systems",
                       None, t0)
    I, x = witness
    cert = {"realization": lower.copy(), "I": I, "x": x}
    return _finish("semimonotone", False, "general:lower-bound-systems", cert, t0)


def _semimonotone_false_cert(box: IntervalMatrix, config: CheckConfig) -> dict:
    """Definitional witness on the lower bound for a fast-path failure."""
    cert: dict = {"realization": box.lower.copy()}
    if box.n <= config.cap_point:
        witness = pc.semimonotone_witness(box.lower, cap=config.cap_point,
                                          override_cap=True)
        if witness is not None:
            cert["I"], cert["x"] = witness
        else:
            cert["note"] = "witness extraction failed at tolerance boundary"
    return cert


# ---------------------------------------------------------------------------
# Strong nonsingularity and principal nondegeneracy
# ---------------------------------------------------------------------------

# Sign-vertex matrices per batch_det_signs call in _vertex_sign_sweep.
_SWEEP_CHUNK = 1024


def _vertex_sign_sweep(mid_sub: np.ndarray, rad_sub: np.ndarray,
                       mid_sign: int, scale_floor: float):
    """Scan det(mid - D_y rad D_z) over sign pairs (up to (y,z) ~ (-y,-z));
    return the first (y, z, det) whose product with the midpoint sign is
    not positive, or None.

    ``scale_floor`` is the magnitude of the realization entries outside the
    block (zero for a full-support sweep), so each determinant classifies
    against the full realization's ambient scale -- the same classification
    the point-level minor test applies.

    The vertices of several consecutive y go to one :func:`batch_det_signs`
    call, at most ``_SWEEP_CHUNK`` matrices (or one y's 2^k) at a time, in
    y-major then z order, so the first hit is the same as one y at a time.
    """
    k = mid_sub.shape[0]
    z_rows = np.array(list(sign_vectors(k)))
    ys_per_call = max(1, _SWEEP_CHUNK // len(z_rows))
    y_iter = sign_vectors(k, half=True)
    while True:
        ys = np.array(list(islice(y_iter, ys_per_call)))
        if ys.size == 0:
            return None
        y_rad = ys[:, :, None] * rad_sub[None, :, :]
        vertices = (mid_sub[None, None, :, :]
                    - y_rad[:, None, :, :] * z_rows[None, :, None, :]
                    ).reshape(-1, k, k)
        signs = batch_det_signs(vertices, scale=scale_floor)
        bad = np.nonzero(signs * mid_sign <= 0)[0]
        if bad.size:
            j = int(bad[0])
            y, z = ys[j // len(z_rows)], z_rows[j % len(z_rows)]
            return y, z, float(np.linalg.det(vertices[j]))


def _bisect_singular_block(box: IntervalMatrix, y: np.ndarray, z: np.ndarray,
                           support: tuple[int, ...]) -> np.ndarray:
    """A realization mid - t * D_y rad D_z whose support-block determinant
    is tolerance-classified zero, found by bisection on t in [0, 1].

    Assumes the block determinant changes sign (or reaches zero) along the
    segment, which the sign sweep guarantees."""
    idx = list(support)
    step = np.outer(y, z) * box.radius
    if len(idx) == 1:
        # The singular realization is explicit: the diagonal interval of a
        # flagged singleton support straddles zero, so set the entry to an
        # exact zero (a self-scaled 1x1 block never classifies as zero).
        i = idx[0]
        A = box.midpoint.copy()
        A[i, i] = 0.0
        return A

    def sign_at(t: float) -> int:
        # Classify with the realization's own ambient magnitude so the
        # result matches the standalone principal-minor test exactly.
        R = box.midpoint - t * step
        return minor_sign(R, tuple(idx), float(np.max(np.abs(R))))

    s0 = sign_at(0.0)
    lo_t, hi_t = 0.0, 1.0
    if sign_at(1.0) == 0:
        return box.midpoint - step
    for _ in range(200):
        mid_t = (lo_t + hi_t) / 2.0
        s_mid = sign_at(mid_t)
        if s_mid == 0:
            return box.midpoint - mid_t * step
        if s_mid == s0:
            lo_t = mid_t
        else:
            hi_t = mid_t
    return box.midpoint - hi_t * step


def strong_nonsingular(box: IntervalMatrix,
                       config: CheckConfig | None = None) -> PropertyVerdict:
    """Every realization nonsingular: det(mid) * det(mid - D_y rad D_z) > 0
    for all sign pairs (enumerated up to (y,z) ~ (-y,-z))."""
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    if n > config.cap_sign_vertex and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds sign-vertex cap {config.cap_sign_vertex}"
        )
    full = tuple(range(n))
    mid_sign = minor_sign(box.midpoint, full,
                          float(np.max(np.abs(box.midpoint))))
    d_mid = determinant(box.midpoint)
    notes: list[str] = []
    raw = float(np.linalg.det(box.midpoint))
    if mid_sign == 0 and raw != 0.0:
        notes.append("tolerance-marginal: midpoint determinant classified zero")
    if mid_sign == 0:
        cert = {"realization": box.midpoint.copy(),
                "midpoint_determinant": 0.0}
        return _finish("nonsingular", False, "general:sign-vertex-determinants",
                       cert, t0, notes=notes)
    hit = _vertex_sign_sweep(box.midpoint, box.radius, mid_sign, 0.0)
    if hit is None:
        return _finish("nonsingular", True, "general:sign-vertex-determinants",
                       None, t0, notes=notes)
    y, z, d_vertex = hit
    realization = _bisect_singular_block(box, y, z, tuple(range(n)))
    cert = {"y": y, "z": z, "vertex": signed_vertex(box, y, z),
            "midpoint_determinant": d_mid, "vertex_determinant": d_vertex,
            "realization": realization}
    return _finish("nonsingular", False, "general:sign-vertex-determinants",
                   cert, t0, notes=notes)


def _nondegenerate_general(box: IntervalMatrix, config: CheckConfig, t0,
                           method: str, notes: tuple[str, ...] = ()):
    """Support-by-support sign-vertex determinant test (the 5^n route)."""
    n = box.n
    if n > config.cap_nondegenerate and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds nondegeneracy cap {config.cap_nondegenerate}"
        )
    ambient_mid = float(np.max(np.abs(box.midpoint)))
    for support in nonempty_subsets(n):
        idx = list(support)
        mid_sub = box.midpoint[np.ix_(idx, idx)]
        rad_sub = box.radius[np.ix_(idx, idx)]
        s_mid = minor_sign(box.midpoint, support, ambient_mid)
        if s_mid == 0:
            cert = {"support": support, "realization": box.midpoint.copy()}
            return _finish("principally-nondegenerate", False, method, cert, t0,
                           notes=notes + ("midpoint principal minor is zero",))
        # Realization entries outside the support stay at the midpoint; their
        # magnitude is the classification floor for the block determinants.
        outside = np.ones((n, n), dtype=bool)
        outside[np.ix_(idx, idx)] = False
        floor = float(np.max(np.abs(box.midpoint[outside]), initial=0.0))
        hit = _vertex_sign_sweep(mid_sub, rad_sub, s_mid, floor)
        if hit is not None:
            y_sub, z_sub, d_vertex = hit
            y = np.zeros(n)
            z = np.zeros(n)
            y[idx] = y_sub
            z[idx] = z_sub
            realization = _bisect_singular_block(box, y, z, support)
            cert = {"support": support, "y": y, "z": z,
                    "vertex_determinant": d_vertex,
                    "realization": realization}
            return _finish("principally-nondegenerate", False, method, cert, t0,
                           notes=notes)
    return _finish("principally-nondegenerate", True, method, None, t0,
                   notes=notes)


def strong_principally_nondegenerate(box: IntervalMatrix,
                                     config: CheckConfig | None = None
                                     ) -> PropertyVerdict:
    """Every realization has all principal minors nonzero.

    Fast paths: a sign scaling D_y mid D_z that is an M-matrix reduces the
    check to the scaled lower bound being an M-matrix; an exact identity
    midpoint reduces to rho(radius) < 1; a positive definite midpoint on a
    symmetric box reduces to strong positive definiteness. Otherwise the
    general support/sign-vertex enumeration runs.
    """
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    mid, rad = box.midpoint, box.radius
    notes: list[str] = []

    if config.fast_paths != "off":
        if _is_identity(mid):
            rho = spectral_radius_nonneg(rad).rho
            holds, boundary = _rho_threshold(rho, True, config.rho_tol)
            cert = {"rho": rho}
            if not holds:
                cert = _nondegenerate_fast_false_cert(box, config)
                cert["rho"] = rho
            return _finish("principally-nondegenerate", holds,
                           "fast:identity-spectral-radius", cert, t0,
                           boundary=boundary)
        scaling = sign_scaling_to_z_two_sided(mid)
        if scaling is not None:
            y, z = scaling
            mid_scaled = np.outer(y, z) * mid
            if pc.is_M(mid_scaled):
                ok = pc.is_M(mid_scaled - rad)
                method = ("fast:midpoint-M" if np.all(y == 1) and np.all(z == 1)
                          else "fast:sign-scaled-midpoint-M")
                cert = None
                if not ok:
                    cert = _nondegenerate_fast_false_cert(box, config, y, z)
                return _finish("principally-nondegenerate", ok, method, cert, t0)
        if _is_symmetric_box(box) and is_positive_definite(box.midpoint):
            sub = strong_pd(box, config)
            cert = None
            if not sub.holds:
                cert = _nondegenerate_pd_false_cert(box, sub)
            return _finish("principally-nondegenerate", sub.holds,
                           "fast:midpoint-PD-via-strong-PD", cert, t0)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                "no fast path applies to strong principal nondegeneracy"
            )

    return _nondegenerate_general(box, config, t0,
                                  "general:support-sign-determinants",
                                  tuple(notes))


def _nondegenerate_fast_false_cert(box: IntervalMatrix, config: CheckConfig,
                                   y: np.ndarray | None = None,
                                   z: np.ndarray | None = None) -> dict:
    """Singular-realization certificate for an M-scaled fast-path failure.

    In the scaled frame the midpoint is an M-matrix (leading minors
    positive) while the scaled lower bound is a Z-matrix that is not an
    M-matrix, so some leading minor becomes nonpositive along the segment
    towards the lower bound; bisection finds the singular realization.
    """
    n = box.n
    if y is None:
        y = np.ones(n)
    if z is None:
        z = np.ones(n)
    mid_scaled = np.outer(y, z) * box.midpoint
    lower_scaled = mid_scaled - box.radius
    scale = float(np.max(np.abs(lower_scaled)))
    for k in range(1, n + 1):
        support = tuple(range(k))
        if minor_sign(lower_scaled, support, scale) <= 0:
            realization = _bisect_singular_block(box, y, z, support)
            return {"support": support, "y": y, "z": z,
                    "realization": realization}
    return {"realization": box.lower.copy(),
            "note": "witness extraction failed at tolerance boundary"}


def _nondegenerate_pd_false_cert(box: IntervalMatrix,
                                 pd_verdict: PropertyVerdict) -> dict:
    """Singular realization from a failed strong-PD vertex via eigenvalue
    bisection along the segment midpoint -> vertex."""
    s = pd_verdict.certificate["s"]
    step = np.outer(s, s) * box.radius

    def lam_min(t: float) -> float:
        return float(np.min(np.linalg.eigvalsh(symmetric_part(box.midpoint) -
                                               t * symmetric_part(step))))

    lo_t, hi_t = 0.0, 1.0
    for _ in range(200):
        mid_t = (lo_t + hi_t) / 2.0
        if lam_min(mid_t) > 0:
            lo_t = mid_t
        else:
            hi_t = mid_t
        if hi_t - lo_t < 1e-15:
            break
    realization = box.midpoint - hi_t * step
    return {"s": s, "realization": realization,
            "min_eigenvalue": lam_min(hi_t)}


# ---------------------------------------------------------------------------
# Column sufficiency
# ---------------------------------------------------------------------------


def _strong_cs_block(box: IntervalMatrix, I, J) -> np.ndarray:
    """[[lower_II, -upper_IJ], [-upper_JI, lower_JJ]] in order I then J."""
    idx = list(I) + list(J)
    k = len(I)
    block = box.lower[np.ix_(idx, idx)].copy()
    if J:
        up = box.upper[np.ix_(idx, idx)]
        block[:k, k:] = -up[:k, k:]
        block[k:, :k] = -up[k:, :k]
    return block


def _cs_vertex_for_pair(box: IntervalMatrix, I, J) -> np.ndarray:
    """The sign-vertex realization whose (I, J) blocks reproduce the strong
    column-sufficiency system matrix."""
    s = np.ones(box.n)
    for j in J:
        s[j] = -1.0
    return signed_vertex(box, s, s)


def strong_column_sufficient(box: IntervalMatrix,
                             config: CheckConfig | None = None,
                             route: str = "systems") -> PropertyVerdict:
    """Strong column sufficiency.

    General routes: ``"systems"`` tests the signed lower/upper block system
    per disjoint index pair; ``"vertices"`` tests column sufficiency of
    every sign-vertex realization mid - D_s rad D_s (the two are
    equivalent and cross-validated in the test suite). Fast paths: sign
    scaling of the midpoint to an M-matrix with an irreducible radius, an
    exact identity midpoint with an irreducible radius, or a positive
    semidefinite midpoint on a symmetric box.
    """
    config = _cfg(config)
    if route not in ("systems", "vertices"):
        raise ValueError("route must be 'systems' or 'vertices'")
    t0 = time.perf_counter()
    n = box.n
    mid, rad = box.midpoint, box.radius
    notes: list[str] = []

    if config.fast_paths != "off":
        radius_irreducible = is_irreducible(rad)
        if _is_identity(mid):
            if radius_irreducible:
                rho = spectral_radius_nonneg(rad).rho
                holds, boundary = _rho_threshold(rho, False, config.rho_tol)
                cert = {"rho": rho}
                if not holds:
                    cert = _cs_fast_false_cert(box, config)
                    cert["rho"] = rho
                return _finish("column-sufficient", holds,
                               "fast:identity-spectral-radius", cert, t0,
                               boundary=boundary)
            notes.append("fast-path midpoint-M inapplicable: radius reducible")
        else:
            s = sign_scaling_to_z(mid)
            if s is not None and pc.is_M(np.outer(s, s) * mid):
                if radius_irreducible:
                    mid_scaled = np.outer(s, s) * mid
                    ok = pc.is_M0(mid_scaled - rad)
                    method = ("fast:midpoint-M" if np.all(s == 1)
                              else "fast:sign-scaled-midpoint-M")
                    cert = None
                    if not ok:
                        cert = _cs_fast_false_cert(box, config)
                    return _finish("column-sufficient", ok, method, cert, t0,
                                   notes=tuple(notes))
                notes.append("fast-path midpoint-M inapplicable: radius reducible")
        if _is_symmetric_box(box) and is_positive_semidefinite(box.midpoint):
            sub = strong_psd(box, config)
            cert = None
            if not sub.holds:
                cert = _cs_fast_false_cert(box, config)
                cert["s"] = sub.certificate["s"]
            return _finish("column-sufficient", sub.holds,
                           "fast:midpoint-PSD-via-strong-PSD", cert, t0,
                           notes=tuple(notes))
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                "no fast path applies to strong column sufficiency"
            )

    if route == "vertices":
        if n > config.cap_sign_vertex and not config.override_caps:
            raise DimensionCapError(
                f"dimension {n} exceeds sign-vertex cap {config.cap_sign_vertex}"
            )
        for s in sign_vectors(n, half=True):
            vertex = signed_vertex(box, s, s)
            witness = pc.column_sufficiency_witness(vertex, cap=config.cap_point,
                                                    override_cap=config.override_caps)
            if witness is not None:
                I, J, x, row = witness
                cert = {"I": I, "J": J, "x": x, "strict_row": row,
                        "s": s, "realization": vertex}
                return _finish("column-sufficient", False,
                               "general:sign-vertex-enumeration", cert, t0,
                               notes=tuple(notes))
        return _finish("column-sufficient", True,
                       "general:sign-vertex-enumeration", None, t0,
                       notes=tuple(notes))

    if n > config.cap_index_pairs and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds index-pair cap {config.cap_index_pairs}"
        )
    cert = _cs_witness(box)
    return _finish("column-sufficient", cert is None,
                   "general:signed-block-systems", cert, t0, notes=tuple(notes))


def _cs_witness(box: IntervalMatrix) -> dict | None:
    """The first disjoint index pair (I, J) whose signed block system has a
    solution, as a certificate (I, J, x, strict_row and the sign-vertex
    realization), or None when every system is infeasible."""
    ztol = _ztol(box)
    for I, J in disjoint_index_pairs(box.n):
        if len(I) + len(J) == 1:
            if box.lower[I[0], I[0]] >= -ztol:
                continue
            x, row = np.array([1.0]), 0
        else:
            res = feasible_positive_strict(_strong_cs_block(box, I, J),
                                           strict_all=False)
            if not res.feasible:
                continue
            x, row = res.witness, res.strict_row
        return {"I": I, "J": J, "x": x, "strict_row": row,
                "realization": _cs_vertex_for_pair(box, I, J)}
    return None


def _cs_fast_false_cert(box: IntervalMatrix, config: CheckConfig) -> dict:
    """Certificate for a fast-path column-sufficiency failure: the
    :func:`_cs_witness` certificate when the pairs are within their cap."""
    cert = _cs_witness(box) if box.n <= config.cap_index_pairs else None
    return cert or {"realization": box.lower.copy(),
                    "note": "witness extraction failed at tolerance boundary"}


# ---------------------------------------------------------------------------
# R0 and R
# ---------------------------------------------------------------------------


def _cancel_row_residual(A: np.ndarray, box: IntervalMatrix, i: int,
                         idx: list[int], x: np.ndarray, offset: float) -> None:
    """Adjust one entry of row i (within its interval) so that
    A[i, idx] @ x + offset becomes exactly zero up to one rounding."""
    resid = float(A[i, idx] @ x) + offset
    if resid == 0.0:
        return
    for j_local in np.argsort(-np.asarray(x)):
        j = idx[int(j_local)]
        if x[int(j_local)] <= 0.0:
            break
        corrected = A[i, j] - resid / float(x[int(j_local)])
        if box.lower[i, j] <= corrected <= box.upper[i, j]:
            A[i, j] = corrected
            return


def _r0_realization(box: IntervalMatrix, I, x: np.ndarray) -> np.ndarray:
    """A realization A in the box with A_II x = 0, A_JI x >= 0 for the
    given witness: rows in I interpolate between the bounds to hit zero
    (with the rounding residue cancelled against an entry that has
    interval slack), rows outside I take the lower bound, other columns
    the midpoint."""
    n = box.n
    idx = list(I)
    A = box.midpoint.copy()
    A[:, idx] = box.lower[:, idx]
    for i in idx:
        low = float(box.lower[i, idx] @ x)
        high = float(box.upper[i, idx] @ x)
        if high == low:
            lam = 0.0
        else:
            lam = high / (high - low)
        lam = min(1.0, max(0.0, lam))
        A[i, idx] = lam * box.lower[i, idx] + (1.0 - lam) * box.upper[i, idx]
        _cancel_row_residual(A, box, i, idx, x, 0.0)
    return A


def _strong_r0_system(box: IntervalMatrix, I, J) -> LinearSystem:
    idx = list(I)
    rows = [box.lower[np.ix_(idx, idx)], box.upper[np.ix_(idx, idx)]]
    rels = [LE] * len(idx) + [GE] * len(idx)
    if J:
        rows.append(box.lower[np.ix_(J, idx)])
        rels += [GE] * len(J)
    coeffs = np.vstack(rows)
    norm = float(np.max(np.abs(coeffs)))
    if norm > 0.0:
        coeffs = coeffs / norm  # homogeneous system, unit-scale it
    return LinearSystem(coeffs, tuple(rels), np.zeros(coeffs.shape[0]),
                        (1.0,) * len(idx))


def strong_r0(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong R0: for every index set, no x > 0 with lower_II x <= 0,
    upper_II x >= 0 and lower_JI x >= 0. Fast paths: identity midpoint
    (rho(radius) < 1) and M-matrix midpoint (reduces to strong H)."""
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    mid = box.midpoint

    if config.fast_paths != "off":
        if _is_identity(mid):
            rho = spectral_radius_nonneg(box.radius).rho
            holds, boundary = _rho_threshold(rho, True, config.rho_tol)
            cert = {"rho": rho}
            if not holds:
                cert = _r0_false_cert_general(box, config)
                cert["rho"] = rho
            return _finish("r0", holds, "fast:identity-spectral-radius", cert,
                           t0, boundary=boundary)
        if pc.is_M(mid):
            sub = strong_h(box, config)
            cert = None
            if not sub.holds:
                cert = _r0_false_cert_general(box, config)
            return _finish("r0", sub.holds, "fast:midpoint-M-via-strong-H",
                           cert, t0)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                "no fast path applies to strong R0 for this box"
            )

    if n > config.cap_index_pairs and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds index-set cap {config.cap_index_pairs}"
        )
    for I in nonempty_subsets(n):
        J = [j for j in range(n) if j not in I]
        res = solve_feasibility(_strong_r0_system(box, I, J))
        if res.feasible:
            x = res.witness
            cert = {"I": I, "x": x, "realization": _r0_realization(box, I, x)}
            return _finish("r0", False, "general:index-systems", cert, t0)
    return _finish("r0", True, "general:index-systems", None, t0)


def _r0_false_cert_general(box: IntervalMatrix, config: CheckConfig) -> dict:
    if box.n <= config.cap_index_pairs:
        for I in nonempty_subsets(box.n):
            J = [j for j in range(box.n) if j not in I]
            res = solve_feasibility(_strong_r0_system(box, I, J))
            if res.feasible:
                return {"I": I, "x": res.witness,
                        "realization": _r0_realization(box, I, res.witness)}
    return {"realization": box.lower.copy(),
            "note": "witness extraction failed at tolerance boundary"}


def _r_realization(box: IntervalMatrix, I, x: np.ndarray, t: float) -> np.ndarray:
    """A realization with A_II x + e t = 0 and A_JI x + e t >= 0."""
    n = box.n
    idx = list(I)
    A = box.midpoint.copy()
    A[:, idx] = box.lower[:, idx]
    for i in idx:
        low = float(box.lower[i, idx] @ x) + t
        high = float(box.upper[i, idx] @ x) + t
        if high == low:
            lam = 0.0
        else:
            lam = high / (high - low)
        lam = min(1.0, max(0.0, lam))
        A[i, idx] = lam * box.lower[i, idx] + (1.0 - lam) * box.upper[i, idx]
        _cancel_row_residual(A, box, i, idx, x, t)
    return A


def _strong_r_system(box: IntervalMatrix, I, J) -> tuple[LinearSystem, float]:
    idx = list(I)
    k = len(idx)
    blocks = [box.lower[np.ix_(idx, idx)], box.upper[np.ix_(idx, idx)]]
    rels = [LE] * k + [GE] * k
    if J:
        blocks.append(box.lower[np.ix_(J, idx)])
        rels += [GE] * len(J)
    stacked = np.vstack(blocks)
    norm = float(np.max(np.abs(stacked)))
    norm = norm if norm > 0.0 else 1.0
    coeffs = np.hstack([stacked / norm, np.ones((stacked.shape[0], 1))])
    system = LinearSystem(coeffs, tuple(rels), np.zeros(coeffs.shape[0]),
                          (1.0,) * k + (0.0,))
    return system, norm


def strong_r(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong R: same index-set sweep as strong R0 with the extra scalar
    t >= 0 entering every row. Fast paths as for strong R0."""
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    mid = box.midpoint

    if config.fast_paths != "off":
        if _is_identity(mid):
            rho = spectral_radius_nonneg(box.radius).rho
            holds, boundary = _rho_threshold(rho, True, config.rho_tol)
            cert = {"rho": rho}
            if not holds:
                cert = _r_false_cert_general(box, config)
                cert["rho"] = rho
            return _finish("r", holds, "fast:identity-spectral-radius", cert,
                           t0, boundary=boundary)
        if pc.is_M(mid):
            sub = strong_h(box, config)
            cert = None
            if not sub.holds:
                cert = _r_false_cert_general(box, config)
            return _finish("r", sub.holds, "fast:midpoint-M-via-strong-H",
                           cert, t0)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                "no fast path applies to strong R for this box"
            )

    if n > config.cap_index_pairs and not config.override_caps:
        raise DimensionCapError(
            f"dimension {n} exceeds index-set cap {config.cap_index_pairs}"
        )
    for I in nonempty_subsets(n):
        J = [j for j in range(n) if j not in I]
        system, norm = _strong_r_system(box, I, J)
        res = solve_feasibility(system)
        if res.feasible:
            x = res.witness[: len(I)]
            t_val = float(res.witness[len(I)]) * norm
            cert = {"I": I, "x": x, "t": t_val,
                    "realization": _r_realization(box, I, x, t_val)}
            return _finish("r", False, "general:index-systems", cert, t0)
    return _finish("r", True, "general:index-systems", None, t0)


def _r_false_cert_general(box: IntervalMatrix, config: CheckConfig) -> dict:
    if box.n <= config.cap_index_pairs:
        for I in nonempty_subsets(box.n):
            J = [j for j in range(box.n) if j not in I]
            system, norm = _strong_r_system(box, I, J)
            res = solve_feasibility(system)
            if res.feasible:
                x = res.witness[: len(I)]
                t_val = float(res.witness[len(I)]) * norm
                return {"I": I, "x": x, "t": t_val,
                        "realization": _r_realization(box, I, x, t_val)}
    return {"realization": box.lower.copy(),
            "note": "witness extraction failed at tolerance boundary"}


# ---------------------------------------------------------------------------
# Dispatch, certificate verification, full sweep
# ---------------------------------------------------------------------------

_DISPATCH = {
    "s": strong_s,
    "z": strong_z,
    "m": strong_m,
    "h": strong_h,
    "pd": strong_pd,
    "psd": strong_psd,
    "copositive": lambda box, config=None: strong_copositive(box, False, config),
    "strictly-copositive": lambda box, config=None: strong_copositive(box, True, config),
    "semimonotone": strong_semimonotone,
    "nonsingular": strong_nonsingular,
    "principally-nondegenerate": strong_principally_nondegenerate,
    "column-sufficient": strong_column_sufficient,
    "r0": strong_r0,
    "r": strong_r,
}

# Point-level predicate used to re-verify a "realization" certificate.
_POINT_FOR_STRONG = {
    "s": "s",
    "z": "z",
    "m": "m",
    "h": "h",
    "pd": "pd",
    "psd": "psd",
    "copositive": "copositive",
    "strictly-copositive": "strictly-copositive",
    "semimonotone": "semimonotone",
    "nonsingular": None,  # handled by determinant sign below
    "principally-nondegenerate": "principally-nondegenerate",
    "column-sufficient": "column-sufficient",
    "r0": "r0",
    "r": "r",
}


def check_property(box: IntervalMatrix, prop: str,
                   config: CheckConfig | None = None) -> PropertyVerdict:
    """Run one strong-property check by its token."""
    if prop not in _DISPATCH:
        raise ValueError(f"unknown strong property token {prop!r}")
    config = _cfg(config)
    verdict = _DISPATCH[prop](box, config)
    if config.verify_certificates and not verdict.holds:
        ok = verify_certificate(box, verdict, config)
        if not ok:
            raise CertificateVerificationError(
                f"certificate for strong {prop} failed re-verification"
            )
    return verdict


def verify_certificate(box: IntervalMatrix, verdict: PropertyVerdict,
                       config: CheckConfig | None = None) -> bool:
    """Re-verify a negative verdict's certificate.

    Checks that any attached realization lies in the box and, for
    dimensions within ``config.verify_cap``, that the point property
    indeed fails for it. Positive verdicts verify trivially.
    """
    config = _cfg(config)
    if verdict.holds or verdict.certificate is None:
        return verdict.holds or verdict.certificate is None
    cert = verdict.certificate
    A = cert.get("realization")
    if A is None:
        return True  # theory-level evidence only; nothing to re-check
    A = np.asarray(A, dtype=float)
    slack = 1e-9 * max(1.0, float(np.max(np.abs(box.upper))),
                       float(np.max(np.abs(box.lower))))
    if not box.contains(A, tol=slack):
        return False
    if box.n > config.verify_cap:
        return True
    token = _POINT_FOR_STRONG[verdict.property]
    if token is None:
        return not pc.is_nonsingular(A)
    return not pc.point_check(A, token)


def check_all(box: IntervalMatrix, properties=None,
              config: CheckConfig | None = None) -> list[PropertyVerdict]:
    """Run a list of strong-property checks (all of them by default)."""
    config = _cfg(config)
    tokens = tuple(properties) if properties is not None else ALL_STRONG_PROPERTIES
    return [check_property(box, token, config) for token in tokens]
