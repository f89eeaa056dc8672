"""Constructive design of channels with prescribed fixed points.

Every construction builds a PSD core X on H1 (x) H2 (output (x) input,
the Choi convention of :mod:`conekit.channel`) and finishes it with one
completion by the decay state B, ``_complete``:

    C = X + B (x) (I - tr_H1[X]),

which is trace preserving whenever tr B = 1. C maps sigma to
X(sigma) + tr[(I - tr_H1[X]) sigma^T] B, so it fixes every sigma that X
fixes: the fixed-point condition tr[(I - tr_H1[X]) sigma^T] = 0 reads
tr sigma = tr X(sigma). The two cores are:

* the separable core sum_i sigma_i (x) Pi_i^T / tr[Pi_i sigma_i] for
  states that annihilating projectors Pi_i discriminate unambiguously.
  One state has two projector choices: the top eigenvector
  |v_max><v_max| (``from_top_eigenvector``, the closed form
  sigma (x) Pi^T / lambda_max of ``engineer single``) and the support
  projector (``from_states([sigma])``, which maps supp sigma onto sigma
  and the rest onto B);
* the minimum-trace PSD X fixing every state, from a semidefinite program.

Reports give the decay of C as its spectrum (``channel.spectrum``):
``decay_modulus`` off the unit circle and ``peripheral_spectrum`` on it.
The separable core fixes it in closed form through the B-weight
w = tr[X(B)] = tr[tr_H1[X] B^T]: it maps B to (1 - w) B plus a
combination of the sigma_i and every traceless rho with tr[Pi_i rho] = 0
to zero, so C has spectrum {1 (k times), 1 - w, 0, ...} and decays
exactly when 0 < w < 2 (``_decays``), which the separable constructions
require. At w = 0 B is a second fixed point (a pure qubit sigma with an
orthogonal B gives the dephasing channel); a core with tr_H1[X] = I has
w = tr B = 1. No such rule holds for the SDP core (a two-state core at
d = 3 with w = 0.887 has an eigenvalue of modulus 0.954 off the circle).

Two SDP cores are known exactly: sigma (x) |v_max><v_max|^T / lambda_max
for one state (1 = tr Phi(sigma) = sum_a tr[sigma K_a^dag K_a] <=
lambda_max tr X), and the least trace sum_i 1 / lambda_max(sigma_i) on
orthogonal supports. The solver meets them within 6e-9 (200 states,
d = 2-4, lambda_max leading by >= 1e-2) and 5e-8 (400 pairs, d = 4).

Complete positivity depends on the inputs and is checked on the assembled
Choi matrix rather than factor by factor (some factors are indefinite by
design). Validity reports carry every condition with its numeric residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channel as chan
from . import linops
from . import sdp as sdpmod
from .channel import ChoiMatrix, CptpReport
from .linops import RANK_TOL, hermitize, kron, trace_distance


class ConstructionError(ValueError):
    """A construction precondition failed.

    ``reason`` is a stable machine-readable tag; ``details`` holds the
    numeric evidence.
    """

    def __init__(self, message: str, reason: str = "", details: dict | None = None):
        super().__init__(message)
        self.reason = reason or "construction-error"
        self.details = details or {}


def _complete(x: np.ndarray, b: np.ndarray) -> ChoiMatrix:
    """X + B (x) (I - tr_H1[X]), the completion of the module docstring."""
    d = b.shape[0]
    rest = np.eye(d, dtype=complex) - linops.partial_trace(x, (d, d), over=1)
    return ChoiMatrix(d, d, hermitize(x + kron(b, rest)))


# Exact inputs reach w = 0 (pure qubit sigma, orthogonal B) and w = 2
# (sigma = I/2, pure B), so rounding must not decide either end.
DECAY_TOL = 1e-9


def _decays(weight: float) -> bool:
    """The decay rule of the separable core: DECAY_TOL < w < 2 - DECAY_TOL."""
    return DECAY_TOL < weight < 2.0 - DECAY_TOL


# ----------------------------------------------------------------------
# Unambiguous-discrimination projectors
# ----------------------------------------------------------------------

@dataclass
class DiscriminationReport:
    """Outcome of the annihilating-projector search.

    With K_i the projector onto the intersection of the kernels of all
    other states, projectors[i] is the restriction of K_i to the support of
    sigma_i (zero when the state never enters that kernel). overlaps[i] is
    tr[Pi_i sigma_i]; the search is infeasible when any overlap vanishes,
    and failing_index records the first such state.
    """

    feasible: bool
    projectors: list[np.ndarray]
    overlaps: list[float]
    kernel_overlaps: list[float]
    kernel_ranks: list[int]
    failing_index: int | None = None


def _kernel_intersection(states: list[np.ndarray], skip: int) -> np.ndarray:
    """Projector onto the intersection of ker(sigma_j) over j != skip.

    For PSD operators the intersection of kernels equals the kernel of the
    sum; the caller passes at least two states.
    """
    others = [s for j, s in enumerate(states) if j != skip]
    return linops.kernel_projector(sum(others) / len(others))


def find_discrimination_projectors(sigmas) -> DiscriminationReport:
    """Search for PSD operators Pi_i with tr[Pi_i sigma_j] = 0 for j != i
    and tr[Pi_i sigma_i] > 0 (zero-error detection of each state)."""
    states = [linops.check_density(s) for s in sigmas]
    if len(states) < 2:
        raise ValueError("need at least two states to discriminate")
    d = states[0].shape[0]
    for s in states:
        if s.shape != (d, d):
            raise ValueError("states must share one dimension")

    projectors, overlaps, kernel_overlaps, kernel_ranks = [], [], [], []
    failing = None
    for i, sigma in enumerate(states):
        k = _kernel_intersection(states, i)
        compressed = hermitize(k @ sigma @ k)
        if linops.max_abs(compressed) > RANK_TOL:
            pi = linops.support_projector(compressed, psd_tol=1e-7)
        else:
            pi = np.zeros((d, d), dtype=complex)
        ov = float(np.trace(pi @ sigma).real)
        projectors.append(pi)
        overlaps.append(ov)
        kernel_overlaps.append(float(np.trace(k @ sigma).real))
        kernel_ranks.append(int(round(np.trace(k).real)))
        if ov <= RANK_TOL and failing is None:
            failing = i
    return DiscriminationReport(
        feasible=failing is None,
        projectors=projectors,
        overlaps=overlaps,
        kernel_overlaps=kernel_overlaps,
        kernel_ranks=kernel_ranks,
        failing_index=failing,
    )


# ----------------------------------------------------------------------
# Separable multi-fixed-point construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableMultiSpec:
    """States, their annihilating projectors, and the decay state B.

    cross_overlaps[i, j] is tr[sigma_i Pi_j]; its diagonal holds the
    detection overlaps tr[Pi_i sigma_i]. b_weight is the B-weight of the
    core of ``channel`` (see the module docstring).
    """

    sigmas: tuple[np.ndarray, ...]
    projectors: tuple[np.ndarray, ...]
    b: np.ndarray
    cross_overlaps: np.ndarray
    b_weight: float

    @classmethod
    def from_parts(cls, sigmas, projectors, b=None) -> "SeparableMultiSpec":
        states = tuple(linops.check_density(s) for s in sigmas)
        if not states:
            raise ValueError("need at least one state")
        d = states[0].shape[0]
        projs = tuple(linops.check_hermitian(p) for p in projectors)
        if len(projs) != len(states):
            raise ValueError("one projector per state required")
        b = np.eye(d, dtype=complex) / d if b is None else linops.check_density(b)
        shapes = {f"state {i}": s.shape for i, s in enumerate(states)}
        shapes.update({f"projector {i}": p.shape for i, p in enumerate(projs)}, B=b.shape)
        for name, shape in shapes.items():
            if shape != (d, d):
                raise ValueError(f"{name} is {shape[0]}x{shape[1]}, but state 0 is {d}x{d}")
        cross = np.array([[np.trace(p @ s).real for p in projs] for s in states])
        x_out = sum((np.trace(s).real / ov * p.T for s, p, ov in zip(states, projs, np.diag(cross))
                     if abs(ov) > RANK_TOL), np.zeros_like(b))  # tr_H1 of the assembled core
        return cls(sigmas=states, projectors=projs, b=b, cross_overlaps=cross,
                   b_weight=float(np.trace(x_out @ b.T).real))

    @classmethod
    def from_top_eigenvector(cls, sigma, b=None) -> "SeparableMultiSpec":
        """One state with Pi = |v_max><v_max|, the top eigenvector of sigma
        (deterministic tie-break from linops.herm_eig): the closed form
        sigma (x) Pi^T / lambda_max of ``engineer single``."""
        _, v = linops.herm_eig(linops.check_density(sigma))
        return cls.from_parts([sigma], [linops.ket_projector(v[:, 0])], b)

    @classmethod
    def from_states(cls, sigmas, b=None) -> "SeparableMultiSpec":
        """Derive projectors via the kernel-intersection search."""
        states = [linops.check_density(s) for s in sigmas]
        if len(states) == 1:
            return cls.from_parts(states, [linops.support_projector(states[0])], b=b)
        report = find_discrimination_projectors(states)
        if not report.feasible:
            i = report.failing_index
            raise ConstructionError(
                f"states cannot be unambiguously discriminated: "
                f"tr[Pi_{i} sigma_{i}] = {report.overlaps[i]:.3e} "
                f"(kernel-intersection rank {report.kernel_ranks[i]})",
                reason="not-unambiguously-discriminable",
                details={
                    "failing_index": i,
                    "overlaps": report.overlaps,
                    "kernel_overlaps": report.kernel_overlaps,
                    "kernel_ranks": report.kernel_ranks,
                },
            )
        return cls.from_parts(states, report.projectors, b=b)

    @cached_property
    def channel(self) -> ChoiMatrix:
        """The core sum_i sigma_i (x) Pi_i^T / tr[Pi_i sigma_i], without states
        of vanishing detection overlap, completed by B and built on first use;
        ``build_separable_multi`` checks the conditions it needs."""
        d = self.sigmas[0].shape[0]
        x = np.zeros((d * d, d * d), dtype=complex)
        for sigma, pi, ov in zip(self.sigmas, self.projectors, np.diag(self.cross_overlaps)):
            if abs(ov) > RANK_TOL:
                x += kron(sigma, pi.T) / ov
        return _complete(x, self.b)


def _condition_evidence(spec: SeparableMultiSpec) -> dict:
    """The numbers the three separable conditions test: 1 annihilation, every
    |tr[sigma_i Pi_j]| with i != j at most RANK_TOL; 2 detection, every
    tr[Pi_i sigma_i] above RANK_TOL; 3 decay, ``_decays`` of the B-weight."""
    cross = spec.cross_overlaps
    off_diagonal = np.where(np.eye(len(cross), dtype=bool), 0.0, np.abs(cross))
    return {"cross_overlaps": cross.tolist(), "max_cross_overlap": float(off_diagonal.max()),
            "overlaps": np.diag(cross).tolist(), "b_weight": spec.b_weight}


def separable_condition_report(spec: SeparableMultiSpec) -> dict:
    """The evidence for the three separable conditions (``_condition_evidence``),
    plus the spectrum and the CP/TP data of ``spec.channel``."""
    c = spec.channel
    return {
        **_condition_evidence(spec),
        **chan.spectrum_to_json(chan.spectrum(c)),
        "choi_min_eig": c.cptp.min_eig, "tp_residual": c.cptp.tp_residual,
        "cp": c.cptp.cp, "tp": c.cptp.tp,
        "fixed_point_residuals": [trace_distance(chan.apply(c, s), s) for s in spec.sigmas],
    }


def build_separable_multi(spec: SeparableMultiSpec) -> ChoiMatrix:
    """``spec.channel``, once the spec meets the three conditions of
    ``_condition_evidence``; otherwise the error names the first that failed."""
    evidence = _condition_evidence(spec)
    cross, weight = evidence["max_cross_overlap"], evidence["b_weight"]
    i = int(np.argmin(evidence["overlaps"]))
    overlap = evidence["overlaps"][i]
    if cross > RANK_TOL:
        raise ConstructionError(
            f"condition 1 (annihilation) failed: |tr[sigma_i Pi_j]| = {cross:.3e} for some i != j",
            reason="cross-overlap-nonzero", details={"value": cross})
    if overlap <= RANK_TOL:
        raise ConstructionError(
            f"condition 2 (detection) failed: tr[Pi_{i} sigma_{i}] = {overlap:.3e} not > 0",
            reason="zero-detection-overlap", details={"i": i, "value": overlap})
    if not _decays(weight):
        raise ConstructionError(
            f"condition 3 (decay weight) failed: sum tr[B Pi_i]/tr[Pi_i sigma_i] = {weight:.12g} "
            f"is not in ({DECAY_TOL:g}, 2 - {DECAY_TOL:g})",
            reason="decay-weight-zero" if weight <= DECAY_TOL else "decay-weight-too-large",
            details={"b_weight": weight})
    return spec.channel


# ----------------------------------------------------------------------
# SDP-backed construction
# ----------------------------------------------------------------------

@dataclass
class SdpChannelResult:
    x: ChoiMatrix
    c: ChoiMatrix
    spectrum: chan.Spectrum
    residuals: list[float]
    cptp: CptpReport
    solution: sdpmod.SdpSolution


# Eigenvalues at or below this count as zero when the face is computed.
# Treating a small true eigenvalue as zero moves the constraints by about
# its size, which must stay below the solver's test for linearly
# inconsistent constraints (1e-9); too small a value only leaves the face
# larger than needed.
FACE_TOL = 1e-10


def _support(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues of a PSD operator and their eigenvectors as columns."""
    w, v = np.linalg.eigh(tau)
    keep = w > FACE_TOL
    return w[keep], v[:, keep]


def _boundary_state(tau_i: np.ndarray, support_i, tau_j: np.ndarray) -> np.ndarray | None:
    """The normalized state tau_i - t* tau_j, with t* the largest t that
    keeps it PSD, or None when supp tau_j is not inside supp tau_i or the
    difference vanishes (tau_i == tau_j).

    On supp tau_i, 1/t* is the top eigenvalue of tau_i^-1/2 tau_j tau_i^-1/2.
    """
    w, basis = support_i
    b = linops.dagger(basis) @ tau_j @ basis
    if float(np.trace(tau_j).real - np.trace(b).real) > FACE_TOL:
        return None
    w_isqrt = 1.0 / np.sqrt(w)
    top = float(np.linalg.eigvalsh(hermitize(w_isqrt[:, None] * b * w_isqrt[None, :])).max())
    weight = 1.0 - 1.0 / top
    if weight <= FACE_TOL:
        return None
    return hermitize(tau_i - tau_j / top) / weight


def fixed_point_face(sigmas) -> np.ndarray | None:
    """Isometry onto the face of the PSD cone that holds every Choi matrix
    X fixing all given states, or None when that face is the whole space.

    A channel that fixes every sigma_i fixes every PSD tau in
    span{sigma_i}, so it maps supp tau into itself and its Choi matrix X
    obeys tr[((I - P_tau) (x) tau^T) X] = 0, with P_tau the projector
    onto supp tau. These operators are PSD, so X lies in the kernel of
    their sum. The taus used are the sigma_i and, for every ordered pair
    with supp tau_j inside supp tau_i, the boundary state tau_i - t* tau_j
    (see ``_boundary_state``). Rounds over all pairs run until a round
    yields no new support or leaves the face as it was. This is facial
    reduction (Borwein & Wolkowicz 1981) with the reducing certificates
    read off the states; the face is not proven minimal for three or
    more states.
    """
    states = [linops.check_density(s) for s in sigmas]
    d = states[0].shape[0]
    taus = [(s, _support(s)) for s in states]

    def projector(support) -> np.ndarray:
        return support[1] @ linops.dagger(support[1])

    def face_of(taus) -> np.ndarray:
        k = sum(kron(np.eye(d) - projector(sup), tau.T) for tau, sup in taus)
        w, v = np.linalg.eigh(hermitize(k))
        return v[:, w <= FACE_TOL]

    supports = [projector(sup) for _, sup in taus]
    face = face_of(taus)
    done = 0  # pairs among the first `done` taus were tried in an earlier round
    while True:
        new = []
        for i, (tau_i, sup_i) in enumerate(taus):
            for j, (tau_j, _) in enumerate(taus):
                if i == j or max(i, j) < done:
                    continue
                tau = _boundary_state(tau_i, sup_i, tau_j)
                if tau is None:
                    continue
                sup = _support(tau)
                proj = projector(sup)
                if all(linops.max_abs(proj - p) > FACE_TOL for p in supports):
                    new.append((tau, sup))
                    supports.append(proj)
        if not new:
            break
        done = len(taus)
        taus.extend(new)
        narrower = face_of(taus)
        if narrower.shape[1] == face.shape[1]:
            break
        face = narrower
    return None if face.shape[1] == d * d else face


def build_via_sdp(sigmas, b=None, feas_tol: float = sdpmod.FEAS_TOL) -> SdpChannelResult:
    """The minimum-trace PSD core X fixing every given state, completed by B.

    X is restricted to the face of the PSD cone forced by the supports of
    PSD elements of span{sigma_i} (``fixed_point_face``). When one of them
    is singular, such as a rank-deficient state, no feasible X is positive
    definite, so the full SDP has no strictly feasible point and the
    interior-point method may stall; on the face it regains an interior.
    The face holds every feasible X, so the optimum is unchanged.

    Its decay is the spectrum of C, as the separable rule 1 - w does not
    hold for this core (module docstring); decay_modulus > 1 diverges.
    """
    states = [linops.check_density(s) for s in sigmas]
    if not states:
        raise ValueError("need at least one state")
    d = states[0].shape[0]
    b = np.eye(d, dtype=complex) / d if b is None else linops.check_density(b)
    if b.shape != (d, d):
        raise ValueError("decay state dimension mismatch")

    problem = sdpmod.assemble_fixed_point_constraints(states)
    sol = sdpmod.solve(problem, feas_tol=feas_tol, face=fixed_point_face(states))
    if sol.status != sdpmod.STATUS_OPTIMAL:
        # the identity channel fixes every state, so the constraints are
        # always feasible and an "infeasible" verdict is numerical as well
        raise sdpmod.NumericalLimitError(
            f"SDP solve hit its numerical limit ({sol.status}): "
            f"{sol.message or 'no convergence'}"
        )

    x = hermitize(sol.x)
    c = _complete(x, b)
    return SdpChannelResult(
        x=ChoiMatrix(d, d, x),
        c=c,
        spectrum=chan.spectrum(c),
        residuals=[trace_distance(chan.apply(c, s), s) for s in states],
        cptp=c.cptp,
        solution=sol,
    )
