"""Quantum channels in Choi form.

A channel Phi from a d_in- to a d_out-dimensional system is stored as its
Choi matrix on H1 (x) H2 with H1 the output copy (major index) and H2 the
input copy (minor index):

    C = sum_ij Phi(|i><j|) (x) |i><j|,

so the action is recovered as Phi(rho) = tr_H2[C (I (x) rho^T)], complete
positivity is equivalent to C >= 0, and trace preservation to
tr_H1[C] = I on the input space.

A map rho -> sum_a S_a tr[F_a rho] built from operator pairs (S_a, F_a)
therefore has Choi matrix sum_a S_a (x) F_a^T; the separable channel
constructions in :mod:`conekit.engineer` use exactly that form.

A ChoiMatrix holds a read-only copy of its matrix and caches what is
derived from it: ``superop``, the reshuffle S with S @ vec(rho) =
vec(Phi(rho)), through which every application of the channel goes, and
``cptp``, the CPTP verdict, so a channel is checked once however often it
is iterated.

``spectrum`` and ``fixed_points`` take the eigenvalues and the fixed
space from the real matrix S_r = Re(conj(F) S F^T) of a square channel on
the coordinates of the orthonormal Hermitian basis
``linops.hermitian_basis`` (F has rows vec(E_k)): a Hermiticity-preserving
map is real there, and its fixed space keeps its *-algebra structure
(Wolf, Quantum Channels & Operations, 2012, ch. 6). The real part is the
map of the Hermitian part of C, which ``is_cptp`` tests, so the Hermitian
defect that ChoiMatrix accepts drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linops
from .linops import (
    PSD_TOL,
    hermitize,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    trace_distance,
)

TP_TOL = 1e-9
FP_TOL = 1e-8
# the unit-circle tolerance of ``spectrum`` at its default fp_tol; the
# separable decay rule of conekit.engineer uses the same number, so that a
# decay it accepts is one the spectrum puts off the circle
CIRCLE_TOL = max(FP_TOL, 1e-9)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a linear map, output-major / input-minor ordering."""

    d_in: int
    d_out: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("channel dimensions must be positive")
        m = linops.check_hermitian(self.matrix, tol=1e-6)
        n = self.d_out * self.d_in
        if m.shape != (n, n):
            raise ValueError(
                f"Choi matrix shape {m.shape} does not match d_out*d_in = {n}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def superop(self) -> np.ndarray:
        """Read-only S, shape (d_out^2, d_in^2), with S @ vec(rho) = vec(Phi(rho))
        (vec = row-major flatten): Phi(rho)_{ab} = sum_{jk} C[(a,j),(b,k)] rho_{jk}."""
        do, di = self.d_out, self.d_in
        t = self.matrix.reshape(do, di, do, di)  # indices (a, j, b, k)
        s = t.transpose(0, 2, 1, 3).reshape(do * do, di * di)
        s.flags.writeable = False
        return s

    @cached_property
    def cptp(self) -> CptpReport:
        """is_cptp at the default tolerances."""
        return is_cptp(self)


@dataclass(frozen=True)
class CptpReport:
    cp: bool
    tp: bool
    min_eig: float
    tp_residual: float


@dataclass(frozen=True)
class Spectrum:
    """s_r (S_r of the module docstring) and its eigenvalues split at the
    unit circle: peripheral_spectrum in exact conjugate pairs, as S_r is
    real, and ascending angle; decay_modulus the largest modulus off the circle
    (0.0 when there is none), the rate at which Phi^n(rho) approaches its
    peripheral part, or diverges when above 1."""

    s_r: np.ndarray
    peripheral_spectrum: list[complex]
    decay_modulus: float


@dataclass
class FixedPointSet:
    """Fixed states of a channel plus its spectrum.

    states are unit-trace PSD fixed points; eigenvalue_residuals[i] is the
    trace distance between Phi(states[i]) and states[i].

    projector is P1, the complex (d^2, d^2) operator on vec(rho) that is the
    spectral projector onto the fixed space (exact, as the eigenvalue 1 of a
    CPTP map is semisimple): F^T N (L^T N)^-1 L^T conj(F), with N and L the
    real right and left null vectors of S_r - I on Hermitian basis
    coordinates (see the module docstring). When 1 is the only peripheral
    eigenvalue of ``spectrum``, P1 @ vec(rho) is vec of the limit of
    Phi^n(rho).
    """

    states: list[np.ndarray]
    eigenvalue_residuals: list[float]
    projector: np.ndarray
    spectrum: Spectrum


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

def choi_from_map(phi, d_in: int, d_out: int) -> ChoiMatrix:
    """Assemble the Choi matrix of a callable rho -> Phi(rho)."""
    c = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            e_ij = np.zeros((d_in, d_in), dtype=complex)
            e_ij[i, j] = 1.0
            c += kron(np.asarray(phi(e_ij), dtype=complex), e_ij)
    return ChoiMatrix(d_in, d_out, hermitize(c))


def identity_channel(dim: int) -> ChoiMatrix:
    return choi_from_map(lambda rho: rho, dim, dim)


def unitary_channel(u) -> ChoiMatrix:
    u = linops.as_matrix(u)
    if linops.max_abs(u @ linops.dagger(u) - np.eye(u.shape[0])) > 1e-9:
        raise ValueError("unitary_channel requires a unitary matrix")
    return choi_from_map(lambda rho: u @ rho @ linops.dagger(u), u.shape[0], u.shape[0])


def random_cptp_choi(dim: int, rng: np.random.Generator) -> ChoiMatrix:
    """Sample a random CPTP Choi matrix (PSD Ginibre, then TP normalization)."""
    n = dim * dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw = g @ linops.dagger(g)
    red = partial_trace(raw, (dim, dim), over=1)
    w, v = np.linalg.eigh(hermitize(red))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(np.clip(w, 1e-12, None))) @ linops.dagger(v)
    factor = kron(np.eye(dim), inv_sqrt)
    return ChoiMatrix(dim, dim, hermitize(factor @ raw @ factor))


# ----------------------------------------------------------------------
# Channel action and structural checks
# ----------------------------------------------------------------------

def apply(c: ChoiMatrix, rho) -> np.ndarray:
    """Phi(rho), as the superoperator acting on vec(rho)."""
    rho = linops.as_matrix(rho)
    if rho.shape != (c.d_in, c.d_in):
        raise ValueError(
            f"state dimension {rho.shape} does not match channel input {c.d_in}"
        )
    return (c.superop @ rho.reshape(-1)).reshape(c.d_out, c.d_out)


def is_cptp(c: ChoiMatrix, psd_tol: float = PSD_TOL, tp_tol: float = TP_TOL) -> CptpReport:
    min_eig = float(np.linalg.eigvalsh(hermitize(c.matrix)).min())
    reduced = partial_trace(c.matrix, (c.d_out, c.d_in), over=1)
    tp_residual = linops.max_abs(reduced - np.eye(c.d_in))
    return CptpReport(
        cp=min_eig >= -psd_tol,
        tp=tp_residual <= tp_tol,
        min_eig=min_eig,
        tp_residual=tp_residual,
    )


def require_cptp(c: ChoiMatrix, what: str) -> None:
    """Raise ValueError naming `what` unless the channel is CPTP."""
    rep = c.cptp
    if not (rep.cp and rep.tp):
        raise ValueError(
            f"{what} requires a CPTP channel (min_eig={rep.min_eig:.3e}, "
            f"tp_residual={rep.tp_residual:.3e})"
        )


def iterate(c: ChoiMatrix, rho0, n: int, stop_tol: float | None = None) -> list[np.ndarray]:
    """Apply the channel repeatedly: [Phi(rho0), Phi^2(rho0), ...].

    Returns n states, or fewer if stop_tol is given and two consecutive
    iterates come within that trace distance.
    """
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if c.d_in != c.d_out:
        raise ValueError("iterate requires a square channel (d_in == d_out)")
    require_cptp(c, "iterate")
    state = linops.check_density(rho0, tol=1e-6)
    out: list[np.ndarray] = []
    for _ in range(n):
        nxt = hermitize(apply(c, state))
        out.append(nxt)
        if stop_tol is not None and trace_distance(nxt, state) <= stop_tol:
            break
        state = nxt
    return out


# ----------------------------------------------------------------------
# Fixed-point extraction
# ----------------------------------------------------------------------

def _candidate_keys(states: np.ndarray) -> np.ndarray:
    """One row per state of a stack: its diagonal, real and imaginary
    entries, negated and rounded to 9 digits. ``np.lexsort`` of the columns
    orders the states by these rows as tuples, ties kept in place."""
    k = len(states)
    flat = np.concatenate([np.diagonal(states, axis1=1, axis2=2).real,
                           states.real.reshape(k, -1), states.imag.reshape(k, -1)], axis=1)
    return np.round(-flat, 9)


def _fixed_point_residuals(c: ChoiMatrix, states: np.ndarray) -> np.ndarray:
    """The trace distance between Phi(rho) and rho for each Hermitian rho of
    a stack, from one stacked ``eigvalsh``."""
    images = np.array([hermitize(apply(c, rho)) for rho in states])
    return 0.5 * np.abs(np.linalg.eigvalsh(hermitize(images - states))).sum(axis=1)


def spectrum(c: ChoiMatrix, fp_tol: float = FP_TOL) -> Spectrum:
    """The eigenvalues of S_r (see the module docstring) for a square
    channel, CPTP or not; one lies on the unit circle when its modulus is
    within max(fp_tol, 1e-9) of 1."""
    if c.d_in != c.d_out:
        raise ValueError("spectrum requires a square channel (d_in == d_out)")
    d = c.d_in
    frame = linops.hermitian_basis(d).reshape(d * d, d * d)
    # S on the real coordinates of the Hermitian basis; the real part is the
    # matrix of the map whose Choi matrix is the Hermitian part of C
    s_r = (frame.conj() @ c.superop @ frame.T).real
    evals = np.linalg.eigvals(s_r)
    on_circle = np.abs(np.abs(evals) - 1.0) <= max(fp_tol, 1e-9)
    peripheral = evals[on_circle]
    peripheral = peripheral[np.argsort(np.angle(peripheral), kind="stable")]  # every |z| is 1 up to rounding
    return Spectrum(s_r, [complex(z) for z in peripheral],
                    float(np.abs(evals[~on_circle]).max(initial=0.0)))


def fixed_points(c: ChoiMatrix, fp_tol: float = FP_TOL) -> FixedPointSet:
    """Extract fixed states of a CPTP channel.

    The fixed space is the null space of S_r - I, from the real SVD of the
    S_r of ``spectrum``, spanned by Hermitian fixed elements (see the module
    docstring). On the support of a maximal-support fixed state
    rho = P1 I/d, the limit of the Cesaro means of Phi^k(I/d) with P1 the
    spectral projector onto the fixed space (returned as ``projector``),
    every fixed point is rho^1/2 A rho^1/2 with A in a *-algebra (Wolf,
    Quantum Channels & Operations, 2012, ch. 6). The eigenspaces of
    rho^-1/2 G rho^-1/2, for one generic Hermitian fixed element G (a random
    real combination of that null space), therefore split that support into
    sectors, and rho compressed to each sector is one state. When the fixed
    set is a simplex over distinguishable sectors (the separable case, mixed
    sectors included) these are exactly its extreme points; for noiseless
    subsystems they are one valid but basis-dependent choice. Candidates
    failing the fixed-point residual are dropped and rho is the fallback,
    so the result is never empty. States are sorted by ``_candidate_keys``.
    """
    if c.d_in != c.d_out:
        raise ValueError("fixed_points requires a square channel (d_in == d_out)")
    require_cptp(c, "fixed_points")
    d = c.d_in
    frame = linops.hermitian_basis(d).reshape(d * d, d * d)
    spec = spectrum(c, fp_tol)
    u, sv, vt = np.linalg.svd(spec.s_r - np.eye(d * d))
    null_mask = sv <= max(fp_tol, 1e-11)
    if not np.any(null_mask):
        null_mask = sv <= sv.min() * (1 + 1e-9)
    null_vecs = vt[null_mask].T
    left = u[:, null_mask]
    gram = left.T @ null_vecs
    fixed_vecs = frame.T @ null_vecs  # vec of the Hermitian fixed elements
    projector = fixed_vecs @ np.linalg.solve(gram, left.T @ frame.conj())
    # rho_ref = P1 I/d, whose coordinates are 1/d on the d diagonal units; P1
    # keeps the trace, as the coordinates of I are a left null vector, so
    # dividing by it removes rounding only
    vec_ref = fixed_vecs @ np.linalg.solve(gram, left[:d].sum(axis=0) / d)
    rho_ref = hermitize(vec_ref.reshape(d, d))
    rho_ref = rho_ref / np.trace(rho_ref).real

    # rho_ref^-1/2 on its support; the conjugation amplifies rounding by
    # 1/w, so eigenvalues below fp_tol relative to the largest are cut
    w, support = np.linalg.eigh(rho_ref)
    keep = w > fp_tol * w.max()
    support = support[:, keep]
    iso = support / np.sqrt(w[keep])
    # a random real combination of the real null vectors is a generic
    # Hermitian fixed element
    rng = np.random.default_rng(12345)  # fixed seed: extraction is deterministic
    gen = (fixed_vecs @ rng.standard_normal(null_vecs.shape[1])).reshape(d, d)
    a, vecs = np.linalg.eigh(hermitize(linops.dagger(iso) @ gen @ iso))
    gap_tol = 1e-7 * max(1.0, float(np.abs(a).max()))

    cands = []
    sectors = linops.tolerance_groups(a, gap_tol)  # a ascends: sectors are runs of columns
    bounds = np.searchsorted(sectors, np.arange(sectors[-1] + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        q = support @ vecs[:, lo:hi]
        proj = q @ linops.dagger(q)
        cand = hermitize(proj @ rho_ref @ proj)
        cands.append(cand / np.trace(cand).real)
    cands = np.array(cands)
    residuals = _fixed_point_residuals(c, cands)
    kept = residuals <= fp_tol
    if kept.any():
        cands, residuals = cands[kept], residuals[kept]
    else:
        cands, residuals = rho_ref[None], _fixed_point_residuals(c, rho_ref[None])
    order = np.lexsort(_candidate_keys(cands).T[::-1])
    return FixedPointSet(
        states=list(cands[order]),
        eigenvalue_residuals=residuals[order].tolist(),
        projector=projector,
        spectrum=spec,
    )


# ----------------------------------------------------------------------
# JSON wire format: matrix JSON extended with {"d_in", "d_out"}.
# ----------------------------------------------------------------------

def choi_to_json(c: ChoiMatrix) -> dict:
    obj = matrix_to_json(c.matrix)
    obj["d_in"] = c.d_in
    obj["d_out"] = c.d_out
    return obj


def choi_from_json(obj: dict) -> ChoiMatrix:
    if not isinstance(obj, dict) or "d_in" not in obj or "d_out" not in obj:
        raise ValueError("Choi JSON must contain d_in and d_out")
    return ChoiMatrix(linops.json_int(obj, "d_in"), linops.json_int(obj, "d_out"),
                      matrix_from_json(obj))


def spectrum_to_json(s: Spectrum) -> dict:
    """The two report fields of a spectrum; each peripheral eigenvalue as [re, im]."""
    return {"decay_modulus": s.decay_modulus,
            "peripheral_spectrum": [[z.real, z.imag] for z in s.peripheral_spectrum]}
