"""Robust ("strong") matrix-class checks for interval matrices.

A property holds strongly when every realization inside the box has it.
Each checker implements the exact finite characterization of its strong
property, guarded by polynomially recognizable fast paths (midpoint an
M/M0-matrix, exact identity midpoint with a spectral-radius threshold,
positive (semi)definite midpoint, and ``strong-H-positive-diagonal``: the
box's comparison matrix a nonsingular M-matrix and every lower diagonal
entry positive, which makes every realization a P-matrix and decides the
five default properties). Every verdict records which code path
decided it; every negative verdict carries a certificate with a concrete
realization in the box (or enough data to reconstruct one), re-verified
against the point-level definitions before reporting.

The properties with fast paths are decided through one driver,
:func:`_decide`, where a fast path that fails without a witness of its
own takes the general route's. The general routes of column sufficiency,
R0 and R are the point deciders' own sweeps on the box's two bounds;
strong R0 is the t = 0 case of strong R.
Every determinant sign, in the sign-vertex sweeps and the singular-block
bisection alike, is classified by :func:`lcpbox.linalg.minor_sign`'s zero
rule, which reads only the block's own rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

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
    nonempty_subsets,
    sign_vectors,
    signed_vertex,
)
from .linalg import (
    _zero_bound,
    batch_det_signs,
    is_irreducible,
    is_positive_definite,
    is_positive_semidefinite,
    minor_sign,
    spectral_radius_nonneg,
    symmetric_part,
)
# solve_feasibility is unused here; perfbench's tracer test pins the binding.
from .lp import feasible_positive_strict, solve_feasibility  # noqa: F401
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
    """Tolerance, fast-path policy and the dimension cap of every
    enumeration (None: each one's default from :mod:`lcpbox.tolerances`)."""

    rho_tol: float = RHO_TOL
    fast_paths: str = "auto"  # "auto" | "off" | "only"
    cap: int | None = None

    def __post_init__(self):
        if self.fast_paths not in ("auto", "off", "only"):
            raise ValueError("fast_paths must be one of 'auto', 'off', 'only'")


@dataclass
class PropertyVerdict:
    """Outcome of one strong-property check.

    ``certificate`` is always present when ``holds`` is False; its
    ``realization`` entry (when set) is a concrete matrix inside the box
    for which the point property fails. ``boundary`` flags spectral-radius
    comparisons within tolerance of the threshold, and a fast-path failure
    that the general route overruled.
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


def _cap(config: CheckConfig, default: int) -> int:
    return default if config.cap is None else config.cap


def _check_cap(n: int, default: int, what: str, config: CheckConfig) -> None:
    cap = _cap(config, default)
    if n > cap:
        raise DimensionCapError(f"dimension {n} exceeds {what} cap {cap}")


def _is_identity(M: np.ndarray) -> bool:
    return bool(np.array_equal(M, np.eye(M.shape[0])))


def _is_symmetric_box(box: IntervalMatrix) -> bool:
    tol = pc._ztol(box.lower, box.upper)
    return bool(
        np.all(np.abs(box.midpoint - box.midpoint.T) <= tol)
        and np.all(np.abs(box.radius - box.radius.T) <= tol)
    )


# ---------------------------------------------------------------------------
# The shared driver and the shared fast path
# ---------------------------------------------------------------------------


def _decide(prop: str, box: IntervalMatrix, config: CheckConfig | None,
            fast_paths, general) -> PropertyVerdict:
    """Decide one strong property.

    Each fast path is called as ``fast(box, config, notes)`` and returns
    ``(holds, method, certificate, boundary)``, or None when it does not
    apply; the first that applies decides. Under ``fast_paths="off"`` none
    is tried, and under ``"only"`` a box that none applies to raises
    :class:`FastPathUnavailableError`. The general route is called the same
    way and returns ``(holds, method, certificate)``. Fast paths and the
    general route may append notes.

    A fast path that fails gives its own witness (a certificate with a
    ``realization``) or only extras such as rho, which are then added to
    the general route's certificate. Should the general route hold, its
    verdict stands, marked as boundary; above its cap, its error stands.
    """
    config = _cfg(config)
    t0 = time.perf_counter()
    notes: list[str] = []
    if config.fast_paths != "off":
        for fast in fast_paths:
            hit = fast(box, config, notes)
            if hit is None:
                continue
            holds, method, cert, boundary = hit
            if holds or "realization" in cert:
                return _finish(prop, holds, method, cert, t0, boundary, notes)
            general_holds, general_method, general_cert = general(box, config, notes)
            if general_holds:
                notes.append(f"tolerance-marginal: {method} said fails")
                return _finish(prop, True, general_method, general_cert, t0,
                               True, notes)
            return _finish(prop, False, method, {**general_cert, **cert}, t0,
                           boundary, notes)
        if config.fast_paths == "only":
            raise FastPathUnavailableError(
                f"no fast path applies to strong {prop} for this box"
            )
    holds, method, cert = general(box, config, notes)
    return _finish(prop, holds, method, cert, t0, notes=notes)


def _identity_fast(box: IntervalMatrix, config: CheckConfig, notes,
                   strict: bool, quadratic: bool = False):
    """The exact-identity-midpoint fast path: the property holds strongly
    iff rho(radius) <= 1 (strict: < 1), compared with tolerance
    ``rho_tol``, and rho within it of 1 is flagged as boundary; the
    certificate is rho. Quadratic-form classes see only symmetric parts,
    so they test the symmetrized midpoint and radius."""
    mid, rad = box.midpoint, box.radius
    if quadratic:
        mid, rad = symmetric_part(mid), symmetric_part(rad)
    if not _is_identity(mid):
        return None
    rho = spectral_radius_nonneg(rad)
    tol = config.rho_tol
    holds = (rho < 1.0 - tol) if strict else (rho <= 1.0 + tol)
    return holds, "fast:identity-spectral-radius", {"rho": rho}, abs(rho - 1.0) <= tol


def _strongly_p(box: IntervalMatrix, config: CheckConfig, notes,
                minors: bool = False):
    """Every realization a P-matrix, hence semimonotone, column sufficient,
    R0, R and principally nondegenerate: the box's comparison matrix C is
    a nonsingular M-matrix and every lower diagonal entry is positive, so
    every realization is an H-matrix with a positive diagonal.

    C is certified by v = C^-1 e alone: v > 0 and Cv > 1e-9 |C|v row by
    row. With ``minors`` every principal minor must also clear the zero
    rule: Ostrowski's bound gives det A_SS >= det C_SS >= prod_{i in S} r_i
    with r = Cv / v for every realization A, and the rule's bound for A_SS
    is at most PIVOT_TOL * k * prod_{i in S} m_i with m_i the box's row
    maxima of |entry|, so the product of the k smallest r_i / m_i must
    exceed twice PIVOT_TOL * k. Never fails a box: when a test does not
    pass, the later routes decide.
    """
    if not np.all(np.diag(box.lower) > 0.0):
        return None
    C = comparison_matrix(box)
    try:
        v = np.linalg.solve(C, np.ones(box.n))
    except np.linalg.LinAlgError:
        return None
    Cv = C @ v
    if not (np.all(v > 0.0) and np.all(Cv > 1e-9 * (np.abs(C) @ v))):
        return None
    if minors:
        rows = np.max(np.maximum(np.abs(box.lower), np.abs(box.upper)), axis=1)
        bound = np.cumprod(np.sort(Cv / (v * rows)))
        if any(bound[k - 1] <= 2.0 * _zero_bound(k)
               for k in range(1, box.n + 1)):
            return None
    return True, "fast:strong-H-positive-diagonal", None, False


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


def _parity_labels(size: int, edges) -> np.ndarray | None:
    """Labels l in {-1,+1}^size with l[a] * l[b] == r for every edge
    (a, b, r), or None when the parities are inconsistent.

    Depth-first search over adjacency lists; roots are taken in index
    order and labelled +1, so the answer is unique.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for a, b, r in edges:
        adjacent[a].append((b, r))
        adjacent[b].append((a, r))
    label = [0] * size
    for root in range(size):
        if label[root]:
            continue
        label[root] = 1
        stack = [root]
        while stack:
            a = stack.pop()
            for b, r in adjacent[a]:
                want = r * label[a]
                if not label[b]:
                    label[b] = want
                    stack.append(b)
                elif label[b] != want:
                    return None
    return np.array(label, dtype=float)


def sign_scaling_to_z(M: np.ndarray) -> np.ndarray | None:
    """Find s in {-1,+1}^n with D_s M D_s a Z-matrix, or None.

    The requirement s_i s_j = -sign(M_ij) on nonzero off-diagonal entries
    is a parity constraint per edge, decided by :func:`_parity_labels`.
    Complete: if any valid s exists, one is found.
    """
    n = M.shape[0]
    tol = pc._ztol(M)
    edges = [(i, j, r) for i in range(n) for j in range(n) if i != j
             if (r := _entry_requirement(M[i, j], tol)) is not None]
    return _parity_labels(n, edges)


def sign_scaling_to_z_two_sided(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Find (y, z) in {-1,+1}^n x {-1,+1}^n with D_y M D_z a Z-matrix with
    positive diagonal, or None. Parity constraints y_i z_j on the bipartite
    graph of rows (nodes 0..n-1) and columns (nodes n..2n-1); complete."""
    n = M.shape[0]
    tol = pc._ztol(M)
    diag = np.diag(M)
    if np.any(np.abs(diag) <= tol):
        return None  # positive diagonal unreachable
    edges = [(i, n + i, 1 if diag[i] > 0 else -1) for i in range(n)]
    edges += [(i, n + j, r) for i in range(n) for j in range(n) if i != j
              if (r := _entry_requirement(M[i, j], tol)) is not None]
    labels = _parity_labels(2 * n, edges)
    return None if labels is None else (labels[:n], labels[n:])


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


def _upper_positive_offdiag(box: IntervalMatrix) -> tuple[int, int] | None:
    """The first off-diagonal entry of the upper bound above zero, if any."""
    off = box.upper - np.diag(np.diag(box.upper))
    bad = np.argwhere(off > pc._ztol(box.lower, box.upper))
    return None if bad.size == 0 else (int(bad[0][0]), int(bad[0][1]))


def strong_z(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong Z: the upper bound is a Z-matrix."""
    t0 = time.perf_counter()
    entry = _upper_positive_offdiag(box)
    if entry is None:
        return _finish("z", True, "definition:upper-bound", None, t0)
    cert = {"realization": box.upper.copy(), "entry": entry}
    return _finish("z", False, "definition:upper-bound", cert, t0)


def strong_m(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong M: lower bound an M-matrix and upper off-diagonal nonpositive."""
    t0 = time.perf_counter()
    entry = _upper_positive_offdiag(box)
    if entry is not None:
        cert = {"realization": box.upper.copy(), "entry": entry}
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


def _strong_definite(prop: str, box: IntervalMatrix, config: CheckConfig | None,
                     semidefinite: bool) -> PropertyVerdict:
    """Shared sign-vertex sweep for strong PD / strong PSD."""
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    _check_cap(n, CAP_SIGN_VERTEX, "sign-vertex", config)
    mid_s = symmetric_part(box.midpoint)
    rad_s = symmetric_part(box.radius)
    test = is_positive_semidefinite if semidefinite else is_positive_definite
    for s in sign_vectors(n, half=True):
        vertex_sym = mid_s - np.outer(s, s) * rad_s
        if not test(vertex_sym):
            lam = float(np.min(np.linalg.eigvalsh(vertex_sym)))
            cert = {"s": s, "realization": signed_vertex(box, s, s),
                    "min_eigenvalue": lam}
            return _finish(prop, False, "general:sign-vertex-definiteness", cert, t0)
    return _finish(prop, True, "general:sign-vertex-definiteness", None, t0)


def strong_pd(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong positive definiteness: every sign-vertex realization is PD."""
    return _strong_definite("pd", box, config, semidefinite=False)


def strong_psd(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong positive semidefiniteness: every sign-vertex realization is PSD."""
    return _strong_definite("psd", box, config, semidefinite=True)


# ---------------------------------------------------------------------------
# Copositivity
# ---------------------------------------------------------------------------


def _lower_symmetric(box: IntervalMatrix) -> np.ndarray:
    return symmetric_part(box.midpoint) - symmetric_part(box.radius)


def _copositive_midpoint_m(box, config, notes, strict):
    """Symmetrized midpoint an M-matrix: the symmetrized lower bound must
    be an M-matrix (strict) or an M0-matrix."""
    mid_s = symmetric_part(box.midpoint)
    if not pc.is_M(mid_s):
        return None
    lower_s = mid_s - symmetric_part(box.radius)
    ok = pc.is_M(lower_s) if strict else pc.is_M0(lower_s)
    return ok, "fast:midpoint-M", None if ok else {}, False


def _copositive_general(box, config, notes, strict):
    lower_s = _lower_symmetric(box)
    value, x = pc.copositive_minimum(lower_s, cap=_cap(config, CAP_POINT_ENUM))
    slack = 1e-9 * float(np.max(np.abs(lower_s), initial=0.0))
    holds = value > slack if strict else value >= -slack
    if holds:
        cert = {"minimum": value, "x": x}
    else:
        cert = {"realization": box.lower.copy(), "x": x, "value": value}
    return holds, "general:lower-bound-copositivity", cert


_COPOSITIVE_FAST = {
    strict: (partial(_identity_fast, strict=strict, quadratic=True),
             partial(_copositive_midpoint_m, strict=strict))
    for strict in (False, True)
}


def strong_copositive(box: IntervalMatrix, strict: bool = False,
                      config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong (strict) copositivity: equivalent to (strict) copositivity of
    the lower bound. Quadratic-form classes see only symmetric parts, so
    the fast paths run on the symmetrized midpoint and radius."""
    prop = "strictly-copositive" if strict else "copositive"
    return _decide(prop, box, config, _COPOSITIVE_FAST[strict],
                   partial(_copositive_general, strict=strict))


# ---------------------------------------------------------------------------
# Semimonotonicity
# ---------------------------------------------------------------------------


def _semimonotone_midpoint_m0(box, config, notes):
    if not pc.is_M0(box.midpoint):
        return None
    ok = pc.is_M0(box.lower)
    return ok, "fast:midpoint-M0", None if ok else {}, False


def _semimonotone_general(box, config, notes):
    """The lower bound's first semimonotonicity witness (I, x)."""
    hit = pc.semimonotone_witness(box.lower, cap=_cap(config, CAP_POINT_ENUM))
    cert = None if hit is None else {"realization": box.lower.copy(),
                                     "I": hit[0], "x": hit[1]}
    return hit is None, "general:lower-bound-systems", cert


_SEMIMONOTONE_FAST = (
    partial(_identity_fast, strict=False),
    _semimonotone_midpoint_m0,
    _strongly_p,
)


def strong_semimonotone(box: IntervalMatrix,
                        config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong semimonotonicity: equivalent to semimonotonicity of the lower
    bound; decided by a spectral threshold when the midpoint is the
    identity, through the M0 route when the midpoint is an M0-matrix, or
    by :func:`_strongly_p` on a strongly H box with a positive diagonal."""
    return _decide("semimonotone", box, config, _SEMIMONOTONE_FAST,
                   _semimonotone_general)


# ---------------------------------------------------------------------------
# Strong nonsingularity and principal nondegeneracy
# ---------------------------------------------------------------------------

# Sign-vertex matrices per batch_det_signs call in _vertex_sign_sweep.
_SWEEP_CHUNK = 1024


def _vertex_sign_sweep(mid_sub: np.ndarray, rad_sub: np.ndarray,
                       mid_sign: int):
    """Scan det(mid - D_y rad D_z) over sign pairs (up to (y,z) ~ (-y,-z));
    return the first (y, z, det) whose product with the midpoint sign is
    not positive, or None. The zero rule reads only the block, so each
    determinant classifies as the point-level minor test does.

    The vertices of several consecutive y go to one :func:`batch_det_signs`
    call, at most ``_SWEEP_CHUNK`` matrices (or one y's 2^k) at a time, in
    y-major then z order, so the first hit is the same as one y at a time.
    """
    k = mid_sub.shape[0]
    z_rows = np.array(list(sign_vectors(k)))
    y_rows = z_rows[:len(z_rows) // 2]
    ys_per_call = max(1, _SWEEP_CHUNK // len(z_rows))
    for start in range(0, len(y_rows), ys_per_call):
        ys = y_rows[start:start + ys_per_call]
        y_rad = ys[:, :, None] * rad_sub[None, :, :]
        vertices = (mid_sub[None, None, :, :]
                    - y_rad[:, None, :, :] * z_rows[None, :, None, :]
                    ).reshape(-1, k, k)
        signs = batch_det_signs(vertices)
        bad = np.nonzero(signs * mid_sign <= 0)[0]
        if bad.size:
            j = int(bad[0])
            y, z = ys[j // len(z_rows)], z_rows[j % len(z_rows)]
            return y, z, float(np.linalg.det(vertices[j]))
    return None


def _segment_bisect(side) -> float:
    """Bisection on t in [0, 1] for the point where ``side(t)`` changes
    from positive (the t = 0 side) to negative: the first t probed with
    side 0 (t = 1 is probed first), else the upper end of the bracket once
    no float lies inside it or after 200 halvings."""
    if side(1.0) == 0:
        return 1.0
    lo_t, hi_t = 0.0, 1.0
    for _ in range(200):
        mid_t = (lo_t + hi_t) / 2.0
        if not lo_t < mid_t < hi_t:
            break
        s_mid = side(mid_t)
        if s_mid == 0:
            return mid_t
        if s_mid > 0:
            lo_t = mid_t
        else:
            hi_t = mid_t
    return hi_t


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
        # exact zero (the zero rule calls a 1x1 block zero only there).
        i = idx[0]
        A = box.midpoint.copy()
        A[i, i] = 0.0
        return A
    s0 = minor_sign(box.midpoint, support)

    def side(t: float) -> int:
        sign = minor_sign(box.midpoint - t * step, support)
        return 0 if sign == 0 else (1 if sign == s0 else -1)

    return box.midpoint - _segment_bisect(side) * step


def _support_failure(box: IntervalMatrix,
                     support: tuple[int, ...]) -> dict | None:
    """Where the ``support`` principal minor first loses the midpoint's
    nonzero sign over the box: None when it never does, ``{}`` when the
    midpoint minor is already zero, else y, z, the vertex determinant and
    a singular realization from the sign-vertex sweep."""
    n = box.n
    idx = list(support)
    s_mid = minor_sign(box.midpoint, support)
    if s_mid == 0:
        return {}
    hit = _vertex_sign_sweep(box.midpoint[np.ix_(idx, idx)],
                             box.radius[np.ix_(idx, idx)], s_mid)
    if hit is None:
        return None
    y_sub, z_sub, d_vertex = hit
    y = np.zeros(n)
    z = np.zeros(n)
    y[idx] = y_sub
    z[idx] = z_sub
    return {"y": y, "z": z, "vertex_determinant": d_vertex,
            "realization": _bisect_singular_block(box, y, z, support)}


def strong_nonsingular(box: IntervalMatrix,
                       config: CheckConfig | None = None) -> PropertyVerdict:
    """Every realization nonsingular: det(mid) * det(mid - D_y rad D_z) > 0
    for all sign pairs (enumerated up to (y,z) ~ (-y,-z))."""
    config = _cfg(config)
    t0 = time.perf_counter()
    n = box.n
    _check_cap(n, CAP_SIGN_VERTEX, "sign-vertex", config)
    method = "general:sign-vertex-determinants"
    fail = _support_failure(box, tuple(range(n)))
    if fail is None:
        return _finish("nonsingular", True, method, None, t0)
    if fail:
        cert = {**fail, "vertex": signed_vertex(box, fail["y"], fail["z"]),
                "midpoint_determinant": float(np.linalg.det(box.midpoint))}
        return _finish("nonsingular", False, method, cert, t0)
    notes = []
    if float(np.linalg.det(box.midpoint)) != 0.0:
        notes.append("tolerance-marginal: midpoint determinant classified zero")
    cert = {"realization": box.midpoint.copy(), "midpoint_determinant": 0.0}
    return _finish("nonsingular", False, method, cert, t0, notes=notes)


def _nondegenerate_general(box, config, notes):
    """Support-by-support sign-vertex determinant test (the 5^n route)."""
    n = box.n
    _check_cap(n, CAP_NONDEGENERATE, "nondegeneracy", config)
    method = "general:support-sign-determinants"
    for support in nonempty_subsets(n):
        fail = _support_failure(box, support)
        if fail is None:
            continue
        if not fail:
            notes.append("midpoint principal minor is zero")
            fail = {"realization": box.midpoint.copy()}
        return False, method, {"support": support, **fail}
    return True, method, None


def _leading_minor_witness(box: IntervalMatrix, y: np.ndarray,
                           z: np.ndarray) -> dict | None:
    """Singular-realization certificate for an M-scaled fast-path failure,
    or None when no leading minor of the scaled lower bound is classified
    nonpositive.

    In the scaled frame the midpoint is an M-matrix (leading minors
    positive) while the scaled lower bound is a Z-matrix that is not an
    M-matrix, so some leading minor becomes nonpositive along the segment
    towards the lower bound; bisection finds the singular realization.
    """
    lower_scaled = np.outer(y, z) * box.midpoint - box.radius
    for k in range(1, box.n + 1):
        support = tuple(range(k))
        if minor_sign(lower_scaled, support) <= 0:
            realization = _bisect_singular_block(box, y, z, support)
            return {"support": support, "y": y, "z": z,
                    "realization": realization}
    return None


def _nondegenerate_identity(box, config, notes):
    """The identity path, whose failure carries a leading-minor witness of
    the lower bound when some leading minor is classified nonpositive."""
    hit = _identity_fast(box, config, notes, strict=True)
    if hit is None or hit[0]:
        return hit
    ones = np.ones(box.n)
    witness = _leading_minor_witness(box, ones, ones) or {}
    return False, hit[1], {**witness, **hit[2]}, hit[3]


def _pd_bisection_witness(box: IntervalMatrix, pd_verdict: PropertyVerdict) -> dict:
    """Singular realization from a failed strong-PD vertex via eigenvalue
    bisection along the segment midpoint -> vertex."""
    s = pd_verdict.certificate["s"]
    step = np.outer(s, s) * box.radius

    def lam_min(t: float) -> float:
        return float(np.min(np.linalg.eigvalsh(symmetric_part(box.midpoint) -
                                               t * symmetric_part(step))))

    t = _segment_bisect(lambda t: 1 if lam_min(t) > 0 else -1)
    return {"s": s, "realization": box.midpoint - t * step,
            "min_eigenvalue": lam_min(t)}


def _nondegenerate_midpoint_m(box, config, notes):
    """A sign scaling D_y mid D_z that is an M-matrix: every realization
    is nondegenerate iff the scaled lower bound is an M-matrix."""
    scaling = sign_scaling_to_z_two_sided(box.midpoint)
    if scaling is None:
        return None
    y, z = scaling
    mid_scaled = np.outer(y, z) * box.midpoint
    if not pc.is_M(mid_scaled):
        return None
    ok = pc.is_M(mid_scaled - box.radius)
    cert = None if ok else _leading_minor_witness(box, y, z)
    if not (ok or cert):
        # The M test and the zero rule disagree (a row-scaled box can pass
        # one and not the other): leave the box to the later routes.
        return None
    method = ("fast:midpoint-M" if np.all(y == 1) and np.all(z == 1)
              else "fast:sign-scaled-midpoint-M")
    return ok, method, cert, False


def _nondegenerate_midpoint_pd(box, config, notes):
    """A positive definite midpoint on a symmetric box: strong PD."""
    if not (_is_symmetric_box(box) and is_positive_definite(box.midpoint)):
        return None
    sub = strong_pd(box, config)
    cert = None if sub.holds else _pd_bisection_witness(box, sub)
    return sub.holds, "fast:midpoint-PD-via-strong-PD", cert, False


_NONDEGENERATE_FAST = (
    _nondegenerate_identity,
    _nondegenerate_midpoint_m,
    _nondegenerate_midpoint_pd,
    partial(_strongly_p, minors=True),
)


def strong_principally_nondegenerate(box: IntervalMatrix,
                                     config: CheckConfig | None = None
                                     ) -> PropertyVerdict:
    """Every realization has all principal minors nonzero.

    Fast paths: a sign scaling D_y mid D_z that is an M-matrix reduces the
    check to the scaled lower bound being an M-matrix; an exact identity
    midpoint reduces to rho(radius) < 1; a positive definite midpoint on a
    symmetric box reduces to strong positive definiteness; a strongly H box
    with a positive diagonal holds when :func:`_strongly_p`'s minor bound
    clears the zero rule. Otherwise the general support/sign-vertex
    enumeration runs.
    """
    return _decide("principally-nondegenerate", box, config,
                   _NONDEGENERATE_FAST, _nondegenerate_general)


# ---------------------------------------------------------------------------
# Column sufficiency
# ---------------------------------------------------------------------------


def _cs_witness(box: IntervalMatrix) -> dict | None:
    """The first disjoint pair (I, J) whose signed block system of the two
    bounds is feasible, as a certificate (I, J, x, strict_row and the
    sign-vertex realization), or None."""
    hit = pc._signed_block_witness(box.lower, box.upper)
    if hit is None:
        return None
    I, J, x, row = hit
    # The sign vertex whose (I, J) blocks are the system matrix.
    s = np.ones(box.n)
    s[list(J)] = -1.0
    return {"I": I, "J": J, "x": x, "strict_row": row,
            "realization": signed_vertex(box, s, s)}


def _cs_midpoint_m(box, config, notes):
    """A midpoint that a sign scaling D_s mid D_s turns into an M-matrix
    (the identity included), with an irreducible radius: the identity is
    decided by rho(radius) <= 1, any other by the scaled lower bound being
    an M0-matrix."""
    mid = box.midpoint
    s = sign_scaling_to_z(mid)
    if s is None or not pc.is_M(np.outer(s, s) * mid):
        return None
    if not is_irreducible(box.radius):
        notes.append("fast-path midpoint-M inapplicable: radius reducible")
        return None
    if _is_identity(mid):
        return _identity_fast(box, config, notes, strict=False)
    ok = pc.is_M0(np.outer(s, s) * mid - box.radius)
    method = "fast:midpoint-M" if np.all(s == 1) else "fast:sign-scaled-midpoint-M"
    return ok, method, None if ok else {}, False


def _cs_midpoint_psd(box, config, notes):
    """A positive semidefinite midpoint on a symmetric box: strong PSD."""
    if not (_is_symmetric_box(box) and is_positive_semidefinite(box.midpoint)):
        return None
    sub = strong_psd(box, config)
    cert = None if sub.holds else {"s": sub.certificate["s"]}
    return sub.holds, "fast:midpoint-PSD-via-strong-PSD", cert, False


def _cs_general(box, config, notes):
    _check_cap(box.n, CAP_INDEX_PAIRS, "index-pair", config)
    cert = _cs_witness(box)
    return cert is None, "general:signed-block-systems", cert


def strong_column_sufficient(box: IntervalMatrix,
                             config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong column sufficiency.

    General route: the signed lower/upper block system per disjoint index
    pair. Fast paths: sign scaling of the midpoint to an M-matrix with an
    irreducible radius (for an exact identity midpoint, a spectral-radius
    threshold), a positive semidefinite midpoint on a symmetric box, or a
    strongly H box with a positive diagonal (:func:`_strongly_p`).
    """
    return _decide("column-sufficient", box, config,
                   (_cs_midpoint_m, _cs_midpoint_psd, _strongly_p), _cs_general)


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


def _r_realization(box: IntervalMatrix, I, x: np.ndarray, t: float) -> np.ndarray:
    """A realization A in the box with A_II x + e t = 0 and
    A_JI x + e t >= 0 for the given witness (t = 0 for R0): rows in I
    interpolate between the bounds to hit zero (with the rounding residue
    cancelled against an entry that has interval slack), rows outside I
    take the lower bound, other columns the midpoint."""
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


def _index_midpoint_m(box, config, notes):
    """An M-matrix midpoint: strong R0 and strong R reduce to strong H."""
    if not pc.is_M(box.midpoint):
        return None
    sub = strong_h(box, config)
    return sub.holds, "fast:midpoint-M-via-strong-H", None if sub.holds else {}, False


def _index_general(box, config, notes, with_t):
    """The point deciders' index-set sweep on the two bounds; a witness
    (I, x, t) becomes a certificate with its realization."""
    _check_cap(box.n, CAP_INDEX_PAIRS, "index-set", config)
    hit = pc._index_witness(box.lower, box.upper, with_t)
    if hit is None:
        return True, "general:index-systems", None
    I, x, t = hit
    cert = {"I": I, "x": x, "t": t} if with_t else {"I": I, "x": x}
    cert["realization"] = _r_realization(box, I, x, t)
    return False, "general:index-systems", cert


_INDEX_FAST = (partial(_identity_fast, strict=True), _index_midpoint_m, _strongly_p)


def strong_r0(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong R0: for every index set, no x > 0 with lower_II x <= 0,
    upper_II x >= 0 and lower_JI x >= 0. Fast paths: identity midpoint
    (rho(radius) < 1), M-matrix midpoint (reduces to strong H) and a
    strongly H box with a positive diagonal (:func:`_strongly_p`)."""
    return _decide("r0", box, config, _INDEX_FAST,
                   partial(_index_general, with_t=False))


def strong_r(box: IntervalMatrix, config: CheckConfig | None = None) -> PropertyVerdict:
    """Strong R: same index-set sweep as strong R0 with the extra scalar
    t >= 0 entering every row. Fast paths as for strong R0."""
    return _decide("r", box, config, _INDEX_FAST,
                   partial(_index_general, with_t=True))


# ---------------------------------------------------------------------------
# Dispatch, certificate verification, full sweep
# ---------------------------------------------------------------------------

# Point re-verification of certificates is exponential for some
# properties; it is skipped above this dimension (containment still checked).
_VERIFY_CAP = 6

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


def check_property(box: IntervalMatrix, prop: str,
                   config: CheckConfig | None = None) -> PropertyVerdict:
    """Run one strong-property check by its token."""
    if prop not in _DISPATCH:
        raise ValueError(f"unknown strong property token {prop!r}")
    config = _cfg(config)
    verdict = _DISPATCH[prop](box, config)
    if not verdict.holds:
        ok = verify_certificate(box, verdict)
        if not ok:
            raise CertificateVerificationError(
                f"certificate for strong {prop} failed re-verification"
            )
    return verdict


def verify_certificate(box: IntervalMatrix, verdict: PropertyVerdict) -> bool:
    """Re-verify a negative verdict's certificate.

    Checks that the certificate's realization lies in the box and, for
    dimensions up to ``_VERIFY_CAP``, that the point property indeed fails
    for it. Positive verdicts verify trivially; a negative verdict without
    a certificate or without a realization does not.
    """
    if verdict.holds:
        return True
    A = (verdict.certificate or {}).get("realization")
    if A is None:
        return False
    A = np.asarray(A, dtype=float)
    slack = 1e-9 * max(float(np.max(np.abs(box.upper))),
                       float(np.max(np.abs(box.lower))))
    if not box.contains(A, tol=slack):
        return False
    if box.n > _VERIFY_CAP:
        return True
    return not pc.point_check(A, verdict.property)


def check_all(box: IntervalMatrix, properties=None,
              config: CheckConfig | None = None) -> list[PropertyVerdict]:
    """Run a list of strong-property checks (all of them by default)."""
    config = _cfg(config)
    tokens = tuple(properties) if properties is not None else ALL_STRONG_PROPERTIES
    return [check_property(box, token, config) for token in tokens]
