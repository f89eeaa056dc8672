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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be unique")
        object.__setattr__(self, "alphabet", tuple(str(u) for u in self.alphabet))
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
    """Probabilities of every word of the given length."""
    if length < 0:
        raise ValueError("length must be >= 0")
    total = len(q.alphabet) ** length
    if total > WORD_ENUMERATION_CAP:
        raise ValueError(
            f"{total} words of length {length} exceed the enumeration cap {WORD_ENUMERATION_CAP}"
        )
    out: dict[tuple[str, ...], float] = {}

    def walk(prefix: tuple[str, ...], vec: np.ndarray):
        if len(prefix) == length:
            out[prefix] = float(vec @ q.tau)
            return
        for u in q.alphabet:
            walk(prefix + (u,), vec @ q.d_maps[u])

    walk((), q.pi.copy())
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

    Returns (member, residual, coefficients) from nonnegative least squares.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != cone.ambient_dim:
        raise ValueError(f"vector dimension {v.size} != cone dimension {cone.ambient_dim}")
    coeffs, residual = nnls(cone.generators.T, v)
    # the bound is tol * max(1, |v|): |v| is needed only above tol
    member = bool(residual <= tol or residual <= tol * float(linops.row_norms(v[None])[0]))
    return member, float(residual), coeffs


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
            ok, res, _ = cone_membership(cone, d @ g, tol)
            if res > worst_res:
                worst_res = res
                worst_case = (u, gi)
            if not ok:
                maps_ok = False

    # g.pi >= -tol max(1, |g||pi|), divided by |g| so that no product overflows
    norms = linops.row_norms(cone.generators)
    with np.errstate(over="ignore"):  # 1 / |g| of a subnormal |g| reads inf
        floor = -tol * np.maximum(1.0 / norms, linops.row_norms(q.pi[None])[0])
    pi_ok = bool(np.all((cone.generators / norms[:, None]) @ q.pi >= floor))
    return DharmadhikariReport(
        tau_in_cone=tau_ok,
        maps_preserve_cone=maps_ok,
        pi_in_dual=pi_ok,
        pointed=is_pointed(cone, tol),
        tau_residual=tau_res,
        worst_map_residual=worst_res,
        worst_map_case=worst_case,
        min_dual_value=float((cone.generators @ q.pi).min()),
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
    if not isinstance(obj["alphabet"], list):
        raise ValueError("'alphabet' must be a list of symbols")
    alphabet = [str(u) for u in obj["alphabet"]]
    d_obj = obj["D"]
    if not isinstance(d_obj, dict):
        raise ValueError("'D' must map each symbol to a matrix")
    dim = linops.json_int(obj, "dim")
    try:
        d_maps = {u: np.asarray(d_obj[u], dtype=float) for u in alphabet if u in d_obj}
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
