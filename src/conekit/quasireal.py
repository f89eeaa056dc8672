"""Quasi-realizations of stationary stochastic processes.

A quasi-realization is a quadruple (dim, pi, {D_u}, tau): a row functional
pi, one square real matrix per alphabet symbol, and a column vector tau.
Word probabilities come from the product rule

    p(u_1 ... u_l) = pi D_{u_1} ... D_{u_l} tau,

with the empty word giving pi tau. The matrices need not be stochastic;
this module checks when they are (positive realization: nonnegative
matrices, row-stochastic sum, stationary pi, all-ones tau) and verifies
the three polyhedral-cone conditions that characterize equivalence to a
positive realization for a user-supplied cone: tau in the cone, every
D_u mapping the cone into itself, and pi nonnegative on it.

Each cone question is one nonnegative least squares (NNLS): membership
on the generator matrix, pointedness on the generators scaled to unit
norm (``is_pointed``). Every norm comes from ``linops.row_norms``, whose
squares cannot overflow or underflow, so the generators' scale decides no verdict.
Nor does it decide whether a symbol matrix maps a generator into the cone:
an image past the float range is tested as a finite positive multiple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import orjson
from scipy.optimize import nnls

from . import linops

CONE_TOL = 1e-8
WORD_ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class QuasiRealization:
    dim: int
    alphabet: tuple[str, ...]
    d_maps: dict[str, np.ndarray]
    pi: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        alphabet = tuple(str(u) for u in self.alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"alphabet symbols must be unique as strings, got {list(alphabet)}")
        object.__setattr__(self, "alphabet", alphabet)
        maps = {}
        for u in self.alphabet:
            if u not in self.d_maps:
                raise ValueError(f"missing transition matrix for symbol {u!r}")
            m = np.asarray(self.d_maps[u], dtype=float)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"matrix for symbol {u!r} has shape {m.shape}, expected ({self.dim}, {self.dim})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"matrix for symbol {u!r} has non-finite entries")
            maps[u] = m
        stray = [u for u in self.d_maps if u not in maps]
        if stray:
            raise ValueError(f"transition matrices for symbols not in the alphabet: {stray}")
        object.__setattr__(self, "d_maps", maps)
        pi = np.asarray(self.pi, dtype=float).reshape(-1)
        tau = np.asarray(self.tau, dtype=float).reshape(-1)
        if pi.size != self.dim or tau.size != self.dim:
            raise ValueError("pi and tau must have length dim")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "tau", tau)


def word_probability(q: QuasiRealization, word) -> float:
    """pi D_{u_1} ... D_{u_l} tau; the empty word gives pi tau."""
    vec = q.pi.copy()
    for u in word:
        u = str(u)
        if u not in q.d_maps:
            raise ValueError(f"unknown symbol {u!r} (alphabet {list(q.alphabet)})")
        vec = vec @ q.d_maps[u]
    return float(vec @ q.tau)


def word_distribution(q: QuasiRealization, length: int) -> dict[tuple[str, ...], float]:
    """Probabilities of every word of the given length, in lexicographic
    order of the alphabet. The words are walked depth first on an explicit
    stack, not by recursion, so any length within the cap is walked."""
    if length < 0:
        raise ValueError("length must be >= 0")
    n = len(q.alphabet)
    # n ** length is exact below the cap's bit length; from there on, any n >= 2 is past the cap
    if n ** min(length, WORD_ENUMERATION_CAP.bit_length()) > WORD_ENUMERATION_CAP:
        raise ValueError(
            f"{n}**{length} words of length {length} exceed the enumeration cap {WORD_ENUMERATION_CAP}"
        )
    out: dict[tuple[str, ...], float] = {}
    stack = [((), q.pi)]
    while stack:
        prefix, vec = stack.pop()
        if len(prefix) == length:
            out[prefix] = float(vec @ q.tau)
        else:  # pushed last symbol first, so the first is walked first
            stack.extend((prefix + (u,), vec @ q.d_maps[u]) for u in reversed(q.alphabet))
    return out


def cause_matrix(q: QuasiRealization) -> np.ndarray:
    """Sum of the per-symbol matrices."""
    return sum(q.d_maps[u] for u in q.alphabet)


@dataclass(frozen=True)
class PositiveRealizationReport:
    nonneg: bool
    stochastic: bool
    stationary: bool
    tau_ones: bool
    min_entry: float
    row_sum_residual: float
    stationary_residual: float
    tau_residual: float

    @property
    def all_ok(self) -> bool:
        return self.nonneg and self.stochastic and self.stationary and self.tau_ones


def is_positive_realization(q: QuasiRealization, tol: float = 1e-9) -> PositiveRealizationReport:
    min_entry = min(float(q.d_maps[u].min()) for u in q.alphabet)
    ms = cause_matrix(q)
    row_sum_residual = float(np.abs(ms @ np.ones(q.dim) - 1.0).max())
    stationary_residual = float(np.abs(q.pi @ ms - q.pi).max())
    tau_residual = float(np.abs(q.tau - 1.0).max())
    return PositiveRealizationReport(
        nonneg=min_entry >= -tol,
        stochastic=row_sum_residual <= tol,
        stationary=stationary_residual <= tol,
        tau_ones=tau_residual <= tol,
        min_entry=min_entry,
        row_sum_residual=row_sum_residual,
        stationary_residual=stationary_residual,
        tau_residual=tau_residual,
    )


# ----------------------------------------------------------------------
# Polyhedral cones
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedralCone:
    """Conic hull of finitely many generator vectors (rows)."""

    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] == 0:
            raise ValueError("generators must be a non-empty list of vectors")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators contain non-finite entries")
        norms = linops.row_norms(g)
        if not np.all((norms > 0.0) & (norms < np.inf)):
            raise ValueError("generators must be non-zero, with norms in the floating-point range")
        object.__setattr__(self, "generators", g)

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]


def cone_membership(cone: PolyhedralCone, v, tol: float = CONE_TOL) -> tuple[bool, float, np.ndarray]:
    """Is v a nonnegative combination of the generators?

    Returns (member, residual, coefficients) from nonnegative least squares;
    v is a member when the residual is at most tol * max(1, |v|), tested on
    v / max |v_i| when |v| or the residual is past the float range (a cone
    is closed under positive scaling, and the residual may then read inf).
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != cone.ambient_dim:
        raise ValueError(f"vector dimension {v.size} != cone dimension {cone.ambient_dim}")
    coeffs, residual = nnls(cone.generators.T, v)
    # the bound is tol * max(1, |v|): |v| is needed only above tol
    norm = 0.0 if residual <= tol else float(linops.row_norms(v[None])[0])
    if residual < np.inf and norm < np.inf:
        return bool(residual <= tol or residual <= tol * norm), float(residual), coeffs
    peak = float(np.abs(v).max())  # |v| / peak and the residual / peak are finite
    member, residual, coeffs = cone_membership(cone, v / peak, tol)
    with np.errstate(over="ignore"):
        return member, residual * peak, coeffs * peak


def is_pointed(cone: PolyhedralCone, tol: float = CONE_TOL) -> bool:
    """Does the cone contain no line? It contains one exactly when 0 lies
    in the convex hull of its generators scaled to unit norm, the rows of
    G. The residual of min over lambda >= 0 of |G^T lambda|^2 +
    (1^T lambda - 1)^2 is h / sqrt(1 + h^2), h the distance from 0 to that
    hull: 0 for a cone with a line. The cone is pointed when the residual
    exceeds ``tol``, about the least distance h that counts as nonzero."""
    a = np.ones((cone.ambient_dim + 1, len(cone.generators)))  # G^T over a row of ones
    a[:-1] = cone.generators.T / linops.row_norms(cone.generators)
    target = np.zeros(len(a))
    target[-1] = 1.0
    return bool(nnls(a, target)[1] > tol)


def _image_membership(cone: PolyhedralCone, d: np.ndarray, g: np.ndarray,
                      tol: float) -> tuple[bool, float]:
    """(member, residual) of ``cone_membership`` for d @ g. When that product
    overflows, membership is decided on the finite positive multiple
    (d / max|d_ij|) @ (g / max|g_i|), divided by its peak entry as
    ``cone_membership`` divides a vector past the float range, and the
    residual is scaled back, possibly to inf."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf reads nan
        image = d @ g
    if np.isfinite(image).all():
        return cone_membership(cone, image, tol)[:2]
    d_peak, g_peak = np.abs(d).max(), np.abs(g).max()
    image = (d / d_peak) @ (g / g_peak)
    peak = np.abs(image).max()
    member, residual, _ = cone_membership(cone, image / peak, tol)
    with np.errstate(over="ignore"):
        return member, residual * peak * d_peak * g_peak


@dataclass(frozen=True)
class DharmadhikariReport:
    """The three cone conditions plus pointedness, with worst residuals."""

    tau_in_cone: bool
    maps_preserve_cone: bool
    pi_in_dual: bool
    pointed: bool
    tau_residual: float
    worst_map_residual: float
    worst_map_case: tuple[str, int] | None
    min_dual_value: float

    @property
    def all_ok(self) -> bool:
        return self.tau_in_cone and self.maps_preserve_cone and self.pi_in_dual and self.pointed


def check_dharmadhikari(q: QuasiRealization, cone: PolyhedralCone,
                        tol: float = CONE_TOL) -> DharmadhikariReport:
    """Verify a GIVEN cone against a quasi-realization: tau in the cone,
    every symbol matrix mapping each generator back into the cone
    (sufficient by convexity), and pi nonnegative on every generator."""
    if cone.ambient_dim != q.dim:
        raise ValueError(
            f"cone dimension {cone.ambient_dim} != realization dimension {q.dim}"
        )
    tau_ok, tau_res, _ = cone_membership(cone, q.tau, tol)

    worst_res = 0.0
    worst_case: tuple[str, int] | None = None
    maps_ok = True
    for u in q.alphabet:
        d = q.d_maps[u]
        for gi, g in enumerate(cone.generators):
            ok, res = _image_membership(cone, d, g, tol)
            if res > worst_res:
                worst_res = res
                worst_case = (u, gi)
            if not ok:
                maps_ok = False

    # g.pi >= -tol max(1, |g||pi|), divided by |g| so that no product overflows
    norms = linops.row_norms(cone.generators)
    with np.errstate(over="ignore"):  # 1 / |g| of a subnormal |g|, or g.pi, may read inf
        floor = -tol * np.maximum(1.0 / norms, linops.row_norms(q.pi[None])[0])
        min_dual_value = float((cone.generators @ q.pi).min())
    pi_ok = bool(np.all((cone.generators / norms[:, None]) @ q.pi >= floor))
    return DharmadhikariReport(
        tau_in_cone=tau_ok,
        maps_preserve_cone=maps_ok,
        pi_in_dual=pi_ok,
        pointed=is_pointed(cone, tol),
        tau_residual=tau_res,
        worst_map_residual=worst_res,
        worst_map_case=worst_case,
        min_dual_value=min_dual_value,
    )


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------

def quasireal_to_json(q: QuasiRealization) -> dict:
    return {
        "dim": q.dim,
        "alphabet": list(q.alphabet),
        "D": {u: [[float(x) for x in row] for row in q.d_maps[u]] for u in q.alphabet},
        "pi": [float(x) for x in q.pi],
        "tau": [float(x) for x in q.tau],
    }


def quasireal_from_json(obj: dict) -> QuasiRealization:
    if not isinstance(obj, dict):
        raise ValueError("quasi-realization JSON must be an object")
    missing = {"dim", "alphabet", "D", "pi", "tau"} - set(obj)
    if missing:
        raise ValueError(f"quasi-realization JSON missing keys: {sorted(missing)}")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list):
        raise ValueError("'alphabet' must be a list of symbols")
    # a symbol is a JSON string, as the keys of 'D' are; str() would rename
    # null, true or 1.0 to the Python spellings 'None', 'True' and '1.0'
    for i, u in enumerate(alphabet):
        if not isinstance(u, str):
            raise ValueError(f"alphabet entry {i} is {orjson.dumps(u).decode()}, not a string")
    d_obj = obj["D"]
    if not isinstance(d_obj, dict):
        raise ValueError("'D' must map each symbol to a matrix")
    dim = linops.json_int(obj, "dim")
    try:
        d_maps = {u: np.asarray(m, dtype=float) for u, m in d_obj.items()}
    except TypeError as exc:
        raise ValueError(f"quasi-realization JSON field has the wrong type: {exc}") from exc
    return QuasiRealization(
        dim=dim,
        alphabet=tuple(alphabet),
        d_maps=d_maps,
        pi=linops.vector_from_json(obj["pi"], "pi"),
        tau=linops.vector_from_json(obj["tau"], "tau"),
    )


def cone_to_json(cone: PolyhedralCone) -> dict:
    return {"generators": [[float(x) for x in g] for g in cone.generators]}


def cone_from_json(obj: dict) -> PolyhedralCone:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError("cone JSON must contain 'generators'")
    try:
        generators = np.asarray(obj["generators"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"cone generators have the wrong type: {exc}") from exc
    return PolyhedralCone(generators=generators)
