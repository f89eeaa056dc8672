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

Every cone question is decided in unit coordinates, on the generators
scaled to unit norm and one cached SVD of them (``PolyhedralCone``): a
vector v is asked as v / max|v_i|, and an image D_u g as the same of
(D_u / max|D_ij|) g / |g|, so that no product overflows (``_decide``).
Least-squares coefficients alpha >= 0 whose residual passes the membership
test prove membership; any other vector is decided by one nonnegative least
squares (NNLS) on the unit generators. For independent generators the least
singular value bounds the distance from 0 to their hull, and proves
pointedness when that bound clears ``tol``; otherwise one NNLS on the unit
generators decides (``is_pointed``). ``nnls`` imports ``scipy.optimize`` on
its first call, and only ``sdp.solve`` imports scipy otherwise, so a
process whose cone questions all have certificates loads no scipy at all.
Every norm of a row not at unit scale comes from ``linops.row_norms``,
whose squares cannot overflow or underflow, so the generators' scale
decides no verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import orjson

from . import linops

CONE_TOL = 1e-8
WORD_ENUMERATION_CAP = 10 ** 6


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``scipy.optimize.nnls``, imported on the first call: only vectors and
    cones no certificate decides reach it. Its iteration cap, a
    ``RuntimeError``, is raised as the numerical failure it is,
    ``np.linalg.LinAlgError``."""
    from scipy.optimize import nnls as solve

    try:
        return solve(a, b)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(f"NNLS failed: {exc}") from exc


def _read_only(a) -> np.ndarray:
    """A float copy of a that no one can write, so that no caller's array
    shares memory with a realization or a cone (and its factorization)."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


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
            m = _read_only(self.d_maps[u])
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"matrix for symbol {u!r} has shape {m.shape}, expected ({self.dim}, {self.dim})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"matrix for symbol {u!r} has non-finite entries")
            maps[u] = m
        stray = [u for u in self.d_maps if u not in maps]
        if stray:
            raise ValueError(f"transition matrices for symbols not in the alphabet: {stray}")
        object.__setattr__(self, "d_maps", maps)
        pi = _read_only(self.pi).reshape(-1)
        tau = _read_only(self.tau).reshape(-1)
        if pi.size != self.dim or tau.size != self.dim:
            raise ValueError("pi and tau must have length dim")
        for name, vec in (("pi", pi), ("tau", tau)):
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} has non-finite entries")
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

class _UnitFactor(NamedTuple):
    """The generators scaled to unit norm, the rows of U, with the
    pseudo-inverse of U^T from the SVD of U, and U's least singular value
    when the generators are independent (0.0 when they are dependent by
    numpy's rank rule: a singular value at most max(U.shape) * eps times
    the largest)."""

    norms: np.ndarray
    unit: np.ndarray
    pinv: np.ndarray
    sigma_min: float


@dataclass(frozen=True)
class PolyhedralCone:
    """Conic hull of finitely many generator vectors (rows), kept as a
    read-only copy, so that ``_factor``, the SVD every cone question of
    this cone reuses, cannot go stale."""

    generators: np.ndarray

    def __post_init__(self):
        g = _read_only(self.generators)
        if g.ndim != 2 or g.shape[0] == 0:
            raise ValueError("generators must be a non-empty list of vectors")
        if g.shape[1] == 0:
            raise ValueError("generators must have at least one coordinate")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators contain non-finite entries")
        norms = linops.row_norms(g)
        if not np.all((norms > 0.0) & (norms < np.inf)):
            raise ValueError("generators must be non-zero, with norms in the floating-point range")
        object.__setattr__(self, "generators", g)

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    @cached_property
    def _factor(self) -> _UnitFactor:
        norms = linops.row_norms(self.generators)
        unit = self.generators / norms[:, None]
        u, s, vt = np.linalg.svd(unit, full_matrices=False)
        kept = s > s[0] * max(unit.shape) * np.finfo(float).eps
        independent = bool(kept.all()) and unit.shape[0] <= unit.shape[1]
        return _UnitFactor(norms, unit, (u[:, kept] / s[kept]) @ vt[kept],
                           float(s[-1]) if independent else 0.0)


def _peak_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows / s, s), s the peak |entry| of each row, or 1 for a zero row."""
    peak = np.abs(rows).max(axis=1)
    s = np.where(peak > 0.0, peak, 1.0)
    return rows / s[:, None], s


def _decide(cone: PolyhedralCone, w: np.ndarray, s: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(member, residual, alpha) for each vector v = s_i w_i, asked in unit
    coordinates: each row w_i has peak entry 1 in size (or is 0) and the
    unit generators U have unit norm, so no product overflows, whatever s_i
    is (inf included). v is a member when |U^T alpha - w_i| <= tol *
    max(1 / s_i, |w_i|), the bound tol * max(1, |v|) divided by s_i, for
    some alpha >= 0. The least-squares alpha, one product with U's cached
    pseudo-inverse, proves it when alpha >= 0 and its residual passes; every
    other row gets one NNLS on U. The residual and alpha are those of w_i on
    U: the caller scales them back to v and the generators."""
    f = cone._factor
    alpha = w @ f.pinv.T
    residual = linops.row_norms(alpha @ f.unit - w)
    with np.errstate(over="ignore", divide="ignore"):  # 1 / s of a subnormal or underflowed s
        bound = tol * np.maximum(1.0 / s, np.linalg.norm(w, axis=1))  # |w_i| is 0 or in [1, sqrt(n)]
    for i in np.flatnonzero((alpha < 0.0).any(axis=1) | (residual > bound)):
        alpha[i] = nnls(f.unit.T, w[i])[0]
        residual[i] = linops.row_norms((alpha[i] @ f.unit - w[i])[None])[0]
    return residual <= bound, residual, alpha


def cone_membership(cone: PolyhedralCone, v, tol: float = CONE_TOL) -> tuple[bool, float, np.ndarray]:
    """Is v a nonnegative combination of the generators?

    Returns (member, residual, coefficients); v is a member when the residual
    is at most tol * max(1, |v|). Decided by ``_decide`` on v / max|v_i|: by
    certificate when the least-squares coefficients are nonnegative (for
    independent generators they are then the NNLS solution: Lawson & Hanson,
    Solving Least Squares Problems, 1974, ch. 23), else by NNLS on the unit
    generators. Either way the residual is that of the coefficients returned.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != cone.ambient_dim:
        raise ValueError(f"vector dimension {v.size} != cone dimension {cone.ambient_dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    w, s = _peak_scaled(v[None])
    member, residual, alpha = _decide(cone, w, s, tol)
    with np.errstate(over="ignore"):  # a coefficient of a generator far below |v| in scale
        return bool(member[0]), float(residual[0] * s[0]), alpha[0] * s[0] / cone._factor.norms


def is_pointed(cone: PolyhedralCone, tol: float = CONE_TOL) -> bool:
    """Does the cone contain no line? It contains one exactly when 0 lies
    in the convex hull of its generators scaled to unit norm, the rows of
    U. The residual of min over lambda >= 0 of |U^T lambda|^2 +
    (1^T lambda - 1)^2 is h / sqrt(1 + h^2), h the distance from 0 to that
    hull: 0 for a cone with a line. The cone is pointed when the residual
    exceeds ``tol``, about the least distance h that counts as nonzero.

    For independent generators h >= sigma / sqrt(m), sigma the least
    singular value of U and m the number of generators, as |U^T lambda| >=
    sigma |lambda| and |lambda| >= 1 / sqrt(m) on the simplex. When that
    bound puts the residual above twice ``tol`` the cone is pointed with no
    NNLS; otherwise the NNLS decides."""
    f = cone._factor
    h = f.sigma_min / math.sqrt(len(f.unit))
    if h / math.sqrt(1.0 + h * h) > 2.0 * tol:
        return True
    a = np.ones((cone.ambient_dim + 1, len(f.unit)))  # U^T over a row of ones
    a[:-1] = f.unit.T
    target = np.zeros(len(a))
    target[-1] = 1.0
    return bool(nnls(a, target)[1] > tol)


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
    (sufficient by convexity), and pi nonnegative on every generator.
    The images D_u g of every symbol and generator are decided in one batch
    (``_decide``), each as (D_u / max|D_ij|) g / |g| divided by its peak
    entry, so that an image past the float range is decided as well."""
    if cone.ambient_dim != q.dim:
        raise ValueError(
            f"cone dimension {cone.ambient_dim} != realization dimension {q.dim}"
        )
    tau_ok, tau_res, _ = cone_membership(cone, q.tau, tol)

    gens, f = cone.generators, cone._factor
    maps, map_peak = _peak_scaled(np.stack([q.d_maps[u].reshape(-1) for u in q.alphabet]))
    # row u|G| + i: D_u g_i / (max|D_u| |g_i|), divided by its peak entry
    images = f.unit @ maps.reshape(-1, q.dim, q.dim).transpose(0, 2, 1)
    w, peak = _peak_scaled(images.reshape(-1, q.dim))
    with np.errstate(over="ignore"):  # the scale of an image past the float range reads inf
        scale = peak * np.outer(map_peak, f.norms).reshape(-1)
    member, residual, _ = _decide(cone, w, scale, tol)
    with np.errstate(over="ignore"):  # scaled factor by factor: inf only past the float range
        residual = ((residual * peak).reshape(-1, len(gens)) * map_peak[:, None] * f.norms).reshape(-1)
    worst = int(np.argmax(residual))  # the first of the largest, as (u, i) ascend
    worst_case = None
    if residual[worst] > 0.0:
        u, gi = divmod(worst, len(gens))
        worst_case = (q.alphabet[u], gi)

    # g.pi >= -tol max(1, |g||pi|), divided by |g| so that no product overflows
    with np.errstate(over="ignore"):  # 1 / |g| of a subnormal |g|, or g.pi, may read inf
        floor = -tol * np.maximum(1.0 / f.norms, linops.row_norms(q.pi[None])[0])
        min_dual_value = float((gens @ q.pi).min())
    pi_ok = bool(np.all(f.unit @ q.pi >= floor))
    return DharmadhikariReport(
        tau_in_cone=tau_ok,
        maps_preserve_cone=bool(member.all()),
        pi_in_dual=pi_ok,
        pointed=is_pointed(cone, tol),
        tau_residual=tau_res,
        worst_map_residual=float(residual[worst]),
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
