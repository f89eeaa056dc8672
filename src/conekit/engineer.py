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
* the SDP core: a PSD X that fixes every state and preserves the trace on
  supp rho, rho = sum_i sigma_i / k (``build_via_sdp``).

Reports give the decay of C as its spectrum (``channel.spectrum``):
``decay_modulus`` off the unit circle and ``peripheral_spectrum`` on it.
The separable core fixes it in closed form through the B-weight
w = tr[X(B)] = tr[tr_H1[X] B^T]: it maps B to (1 - w) B plus a
combination of the sigma_i and every traceless rho with tr[Pi_i rho] = 0
to zero, so C has spectrum {1 (k times), 1 - w, 0, ...} and decays
exactly when 0 < w < 2 (``_decays``), which the separable constructions
require. At w = 0 B is a second fixed point (a pure qubit sigma with an
orthogonal B gives the dephasing channel); a core with tr_H1[X] = I has
w = tr B = 1. No such rule holds for the SDP core: for a full-rank rho
it has w = 1, yet one qubit state diag(0.7, 0.3) gives a decay modulus
near 0.138 and two non-commuting qubit states give 0.

The SDP core is CP by construction. It vanishes on inputs outside
supp rho and preserves the trace on supp rho, so tr_H1[X] = Pi^T, with Pi
the projector onto supp rho, tr X = rank rho on the whole feasible set,
and C = X + B (x) (I - Pi)^T is a sum of two PSD terms: B acts only off
supp rho. The states decide which cores are admissible through their
forced algebra (``forced_algebra``): every Kraus operator lies in its
commutant, which is the face the SDP is solved on, and when that
commutant is C I the one admissible core is the identity on supp rho,
Choi(Y -> Pi Y Pi), returned without a solve. One pure state is such a
case, with X = sigma (x) sigma^T. Otherwise every feasible X is optimal,
and the solver returns one inside the feasible set: a generic admissible
core, near but not at its analytic centre (for diag(0.7, 0.3), log det X
is -3.0817 against the centre's -3.0798).

The complete positivity of a separable channel depends on its inputs and
is checked on the assembled Choi matrix rather than factor by factor
(some factors are indefinite by design). Validity reports carry every
condition with its numeric residual.
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
# (sigma = I/2, pure B), so rounding must not decide either end. The
# eigenvalue 1 - w lies off the unit circle of ``channel.spectrum`` exactly
# when DECAY_TOL < w < 2 - DECAY_TOL, so the rule and the spectrum agree.
DECAY_TOL = chan.CIRCLE_TOL


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


# Two log-eigenvalue differences of rho closer than this are one modular
# degree of ``forced_algebra``; merging two degrees only shrinks the
# generated algebra, which enlarges the face and never excludes a channel.
MODULAR_GAP_TOL = 1e-8
# A singular value of the stacked commutators at or below this counts as
# zero. The generators have norm at most 1, so the test is absolute.
COMMUTANT_TOL = 1e-8


@dataclass(frozen=True)
class ForcedAlgebra:
    """What fixing the states forces on every channel core of ``build_via_sdp``.

    support is an isometry U onto supp rho, rho = sum_i sigma_i / k
    (eigenvalues above ``sdp.FACE_TOL``); commutant holds an orthonormal
    basis (Frobenius inner product) of the commutant of the forced algebra,
    as r x r matrices in that basis, r = rank rho. The commutant is C I,
    commutant_dim 1, exactly when the forced algebra is all of B(supp rho).

    face is an isometry onto the face of the PSD cone that holds every
    core X, or None when that face is the whole space. Every Kraus
    operator K of an admissible channel on supp rho lies in the commutant,
    and X is the sum of |K>><<K| over them, so X lies on the PSD matrices
    over span{vec(U K U^dag)}: it vanishes on inputs outside supp rho and
    off that span. This is facial reduction (Borwein & Wolkowicz 1981)
    with the face read off the algebra. The commutant is block diagonal
    over the blocks of the algebra, and Kraus operators that replace the
    state in each block by its own part of rho span it, so a feasible X
    has full rank on the face: the restricted problem has an interior.
    """

    support: np.ndarray
    commutant: np.ndarray
    face: np.ndarray | None

    @property
    def commutant_dim(self) -> int:
        return self.commutant.shape[0]


def forced_algebra(sigmas) -> ForcedAlgebra:
    """The support of rho, the commutant of the forced algebra and its face.

    A CPTP map on supp rho that fixes every sigma_i fixes rho, so its
    fixed space is rho^1/2 N rho^1/2, with N = Fix(Phi^dag) a *-algebra
    invariant under the modular group Ad rho^it that is the commutant of
    its Kraus operators (Wolf, Quantum Channels & Operations, 2012, ch. 6;
    Blume-Kohout, Ng, Poulin & Viola, PRA 82, 062306, 2010). N contains
    the forced algebra: the smallest such algebra that holds every
    A_i = rho^-1/2 (sigma_i / k) rho^-1/2. In the eigenbasis of rho
    (eigenvalues lambda_a), Ad rho^it multiplies entry (a, b) by
    exp(it (log lambda_a - log lambda_b)), so the forced algebra is
    generated by the pieces of the A_i of one value of that difference
    (within MODULAR_GAP_TOL), and every Kraus operator lies in their
    commutant: the null space of the stacked I (x) G - G^T (x) I over the
    pieces G, read off one SVD.
    """
    states = np.array([linops.check_density(s) for s in sigmas])
    lam, u = sdpmod.support(states.mean(axis=0))
    r = lam.size
    isqrt = 1.0 / np.sqrt(lam)
    gens = isqrt[:, None] * (linops.dagger(u) @ states @ u) * isqrt / len(states)
    gaps = np.log(lam)[:, None] - np.log(lam)[None, :]
    order = np.sort(gaps.ravel())
    degree = np.searchsorted(order[1:][np.diff(order) > MODULAR_GAP_TOL], gaps, side="right")
    # every piece, axes (state, degree, a, b)
    masks = degree == np.arange(degree.max() + 1)[:, None, None]
    pieces = (gens[:, None] * masks).reshape(-1, r, r)
    eye = np.eye(r)
    # vec(G M - M G) on row-major vec(M), axes (piece, i, a, j, b)
    comm = (pieces[:, :, None, :, None] * eye[None, None, :, None, :]
            - eye[None, :, None, :, None] * pieces.swapaxes(1, 2)[:, None, :, None, :])
    # the SVD of the triangular factor: the stack's singular values and
    # right vectors at a fraction of the cost of a tall SVD
    _, sv, vh = np.linalg.svd(np.linalg.qr(comm.reshape(-1, r * r), mode="r"))
    commutant = vh[sv <= COMMUTANT_TOL].conj().reshape(-1, r, r)
    c, d = len(commutant), u.shape[0]
    face = None if c == d * d else (u @ commutant @ linops.dagger(u)).reshape(c, d * d).T
    return ForcedAlgebra(support=u, commutant=commutant, face=face)


IDENTITY_FORCED = "closed form: the fixed states force the identity on supp rho"


def _identity_on_support(support: np.ndarray) -> sdpmod.SdpSolution:
    """Choi(Y -> Pi Y Pi), Pi = support support^dag, as the SDP's solution:
    the only feasible X when the forced algebra is all of B(supp rho)."""
    w = (support @ linops.dagger(support)).reshape(-1)
    r = support.shape[1]
    return sdpmod.SdpSolution(
        x=np.outer(w, w.conj()), objective_value=float(r), primal_residual=0.0,
        dual_residual=0.0, status=sdpmod.STATUS_OPTIMAL, iterations=0, rank=1,
        message=IDENTITY_FORCED,
    )


def build_via_sdp(sigmas, b=None, feas_tol: float = sdpmod.FEAS_TOL) -> SdpChannelResult:
    """A CPTP channel fixing every given state: the SDP core X, completed by B.

    X ranges over the Choi matrices (``sdp.assemble_fixed_point_constraints``)
    that fix every sigma_i and preserve the trace on supp rho,
    rho = sum_i sigma_i / k, restricted to the face spanned by the
    commutant of the forced algebra (``forced_algebra``), where X also
    vanishes on inputs outside supp rho. So tr_H1[X] = Pi^T, with Pi the
    projector onto supp rho, and the completion is C = X + B (x) (I - Pi)^T:
    CP whenever X is PSD, B entering only off supp rho. The objective tr X
    equals rank rho on the whole feasible set, which has an interior on
    the face, so the interior-point method returns a point inside it, a
    generic admissible channel.

    When that commutant is C I, the face is one ray and the only feasible
    X is Choi(Y -> Pi Y Pi). It is returned without assembly or solve, as
    a solution of status optimal, 0 iterations, objective rank rho and the
    message IDENTITY_FORCED. That choice is safe even when wrong, since
    the identity on supp rho is always feasible.

    Its decay is the spectrum of C (module docstring); decay_modulus > 1
    diverges.
    """
    states = [linops.check_density(s) for s in sigmas]
    if not states:
        raise ValueError("need at least one state")
    d = states[0].shape[0]
    if any(s.shape != (d, d) for s in states):
        raise ValueError("states must share one dimension")
    b = np.eye(d, dtype=complex) / d if b is None else linops.check_density(b)
    if b.shape != (d, d):
        raise ValueError("decay state dimension mismatch")

    algebra = forced_algebra(states)
    if algebra.commutant_dim == 1:
        sol = _identity_on_support(algebra.support)
    else:
        problem = sdpmod.assemble_fixed_point_constraints(states)
        sol = sdpmod.solve(problem, feas_tol=feas_tol, face=algebra.face)
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
