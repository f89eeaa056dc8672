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
  supp rho, rho = sum_i sigma_i / k, solved for on supp rho
  (``build_via_sdp``).

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
of 0.113 and two non-commuting qubit states give 0.

The SDP core is CP by construction. ``build_via_sdp`` compresses the
states to supp rho once, sigma_i -> U^dag sigma_i U with U an isometry
onto it (r = rank rho), solves for a PSD core Y on C^r (x) C^r that fixes
them and preserves the trace, and lifts it once,
X = (U (x) conj U) Y (U (x) conj U)^dag; ``SdpChannelResult.solution.x``
is that r^2 x r^2 Y. So X vanishes on inputs outside supp rho,
tr_H1[X] = Pi^T with Pi = U U^dag, tr X = r on the whole feasible set,
and C = X + B (x) (I - Pi)^T is a sum of two PSD terms: B acts only off
supp rho. The states decide which cores are admissible through their
forced algebra (``forced_algebra``): every Kraus operator lies in its
commutant, which is the face the SDP is solved on, and when that
commutant is C I the one admissible core is Y = |I_r>><<I_r|, which lifts
to the identity on supp rho, Choi(Y -> Pi Y Pi), without a solve. One
pure state is such a case, with X = sigma (x) sigma^T. Otherwise every
feasible Y is optimal. For one state the core is the analytic centre of
the feasible set, max log det Y, which is unique and basis-free and has a
closed form up to one small Newton solve (``_one_state_centre``; for
diag(0.7, 0.3), log det Y = -3.0798). For several states the solver
returns a generic admissible core inside the feasible set, near but not
at its centre.

The complete positivity of a separable channel depends on its inputs and
is checked on the assembled Choi matrix rather than factor by factor
(some factors are indefinite by design): ``build_separable_multi`` refuses
a channel that is not CP. Validity reports carry every condition with its
numeric residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channel as chan
from . import linops
from . import sdp as sdpmod
from .channel import ChoiMatrix
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


def find_discrimination_projectors(sigmas) -> DiscriminationReport:
    """Search for PSD operators Pi_i with tr[Pi_i sigma_j] = 0 for j != i
    and tr[Pi_i sigma_i] > 0 (zero-error detection of each state)."""
    states = linops.check_states(sigmas)
    if len(states) < 2:
        raise ValueError("need at least two states to discriminate")

    projectors, overlaps, kernel_overlaps, kernel_ranks = [], [], [], []
    failing = None
    for i, sigma in enumerate(states):
        # the kernels of PSD operators intersect in the kernel of their mean
        k = linops.kernel_projector(np.delete(states, i, axis=0).mean(axis=0))
        pi = linops.support_projector(k @ sigma @ k)
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

TOP_TOL = 1e-10  # eigenvalue and axis ties of SeparableMultiSpec.from_top_eigenvector


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
        states = tuple(linops.check_states(sigmas))
        d = states[0].shape[0]
        projs = tuple(linops.check_hermitian(p) for p in projectors)
        if len(projs) != len(states):
            raise ValueError("one projector per state required")
        b = np.eye(d, dtype=complex) / d if b is None else linops.check_density(b)
        shapes = {f"projector {i}": p.shape for i, p in enumerate(projs)} | {"B": b.shape}
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
        """One state with Pi = |v_max><v_max|, a top eigenvector of sigma: the
        closed form sigma (x) Pi^T / lambda_max of ``engineer single``. With P
        the projector onto the top eigenspace (``linops.tolerance_groups`` at
        TOP_TOL), Pi = P e_j e_j^T P / P_jj for the first axis j with P_jj
        within TOP_TOL of the largest, so Pi depends on that eigenspace, not
        on the basis an eigensolver returns for it; sigma = I/2 gives |0><0|."""
        w, v = np.linalg.eigh(hermitize(linops.check_density(sigma)))
        levels = linops.tolerance_groups(w, TOP_TOL)
        top = v[:, levels == levels[-1]]
        p = top @ linops.dagger(top)
        weights = p.diagonal().real  # P_jj = |P e_j|^2
        j = int(np.flatnonzero(weights >= weights.max() - TOP_TOL)[0])
        return cls.from_parts([sigma], [linops.ket_projector(p[:, j]) / weights[j]], b)

    @classmethod
    def from_states(cls, sigmas, b=None) -> "SeparableMultiSpec":
        """Derive projectors via the kernel-intersection search."""
        states = linops.check_states(sigmas)
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
    ``_condition_evidence`` and the channel is CP; otherwise the error names
    the first that failed (reason not-completely-positive, with choi_min_eig,
    for a channel that meets the three but is not CP)."""
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
    cptp = spec.channel.cptp
    if not cptp.cp:
        raise ConstructionError(
            f"the channel is not completely positive: its Choi matrix has eigenvalue "
            f"{cptp.min_eig:.3e}", reason="not-completely-positive",
            details={"choi_min_eig": cptp.min_eig})
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
    solution: sdpmod.SdpSolution


# Two log-eigenvalue differences of rho closer than this are one modular
# degree of ``forced_algebra``; merging two degrees only shrinks the
# generated algebra, which enlarges the face and never excludes a channel.
MODULAR_GAP_TOL = 1e-8


@dataclass(frozen=True)
class ForcedAlgebra:
    """What fixing the states forces on every channel core of ``build_via_sdp``.

    support is an isometry U onto supp rho, rho = sum_i sigma_i / k
    (``linops.support``), r = rank rho, and eigenvalues the spectrum of rho
    it was cut from, ascending, so that U^dag rho U = diag(eigenvalues[-r:])
    up to rounding: ``build_via_sdp``
    compresses the states to it, solves for the r^2 x r^2 core Y on face
    (``SdpChannelResult.solution.x``) and lifts Y back through U once, so
    the rest is given in these r coordinates. commutant holds an
    orthonormal basis (Frobenius inner product) of the commutant of the
    forced algebra, as r x r matrices. The commutant is C I,
    commutant_dim 1, exactly when the forced algebra is all of B(supp rho).

    face is an isometry onto the face of the PSD cone that holds every
    compressed core Y, its columns the vec K over that basis (r^2 x
    commutant_dim), or None when that face is the whole space. Every
    Kraus operator K of an admissible channel on supp rho lies in the
    commutant, and Y is the sum of |K>><<K| over them, so Y lies on the PSD
    matrices over span{vec K}. This is facial reduction (Borwein &
    Wolkowicz 1981) with the face read off the algebra. The commutant is
    block diagonal over the blocks of the algebra, and Kraus operators
    that replace the state in each block by its own part of rho span it,
    so a feasible Y has full rank on the face: the restricted problem has
    an interior.
    """

    support: np.ndarray
    eigenvalues: np.ndarray
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
    pieces G, read off one SVD: singular values at most RANK_TOL, the rank
    rule of ``linops``, as the generators have norm at most 1. For one state
    A = I, so the commutant is all of M_r, the matrix units: the stack's
    rounding would grow as 1 / lambda_min.
    """
    return _forced_algebra(linops.check_states(sigmas))


def _forced_algebra(states: np.ndarray) -> ForcedAlgebra:
    """``forced_algebra`` of a validated (k, d, d) stack of states."""
    eigenvalues, u = linops.support(states.mean(axis=0))
    r = u.shape[1]
    lam = eigenvalues[eigenvalues.size - r:]
    if len(states) == 1:
        commutant = np.eye(r * r, dtype=complex).reshape(-1, r, r)
    else:
        isqrt = 1.0 / np.sqrt(lam)
        gens = isqrt[:, None] * (linops.dagger(u) @ states @ u) * isqrt / len(states)
        gaps = np.log(lam)[:, None] - np.log(lam)[None, :]
        degree = linops.tolerance_groups(gaps, MODULAR_GAP_TOL)
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
        commutant = vh[sv <= RANK_TOL].conj().reshape(-1, r, r)
    c = len(commutant)
    face = None if c == r * r else commutant.reshape(c, r * r).T
    return ForcedAlgebra(support=u, eigenvalues=eigenvalues, commutant=commutant, face=face)


IDENTITY_FORCED = "closed form: the fixed states force the identity on supp rho"
ONE_STATE_CENTRE = "closed form: the analytic centre of the one-state cores, by Newton on its dual"

# the primal residual at which the dual Newton of ``_one_state_centre`` stops:
# its entries are sums of r terms of at most 1, which rounding leaves near
# r * 1e-16
CENTRE_TOL = 1e-13


def _identity_core(r: int) -> sdpmod.SdpSolution:
    """|I_r>><<I_r|, the Choi matrix of the identity on C^r, as the SDP's
    solution: the only feasible core when the forced algebra is all of
    B(supp rho)."""
    w = np.eye(r, dtype=complex).reshape(-1)
    return sdpmod.SdpSolution(
        x=np.outer(w, w), objective_value=float(r), primal_residual=0.0,
        dual_residual=0.0, status=sdpmod.STATUS_OPTIMAL, iterations=0, rank=1,
        message=IDENTITY_FORCED,
    )


def _one_state_centre(lam: np.ndarray) -> sdpmod.SdpSolution:
    """The analytic centre of the cores that fix one state of spectrum lam
    (r >= 2 eigenvalues, ascending), max log det Y over the feasible set
    (Boyd & Vandenberghe, Convex Optimization, 2004, sect. 8.5.3), as the
    SDP's solution: Y = diag(vec P), P[a, j] = Y[(a, j), (a, j)].

    Y -> (V (x) conj W) Y (V (x) conj W)^dag maps the feasible set onto
    itself for every pair of unitaries V, W that commute with diag(lam), so
    it fixes the unique centre; the diagonal phases among them make the
    centre diagonal. So P maximizes sum log P[a, j] over the
    column-stochastic P with P lam = lam, and at the optimum
    1/P[a, j] = t[a, j] = alpha_j + beta_a lam_j. The 2r multipliers minimize
    the smooth convex dual g = sum alpha + beta . lam - sum log t, whose
    gradient is the primal residual (1 - column sums of P, lam - P lam);
    shifting alpha_j by s lam_j and every beta_a by -s leaves t and g
    alone, so beta_r = 0 is fixed. Damped Newton on the other 2r - 1
    backtracks on g while the decrement is above 0.1 and takes full steps
    below it, which converge quadratically (g is self-concordant; sect.
    9.6): a search on g alone would stall there, its changes below the
    rounding of g. The start t = (r/2)(1 + lam_j / lam_a) is exact for lam
    uniform and takes 4-9 steps, also for an eigenvalue of 1e-7, where
    t = r took 27.

    Newton stops at a primal residual of CENTRE_TOL; one that leaves the
    domain t > 0, goes non-finite or misses that within ``sdp.MAX_ITER``
    steps raises NumericalLimitError with its residual.
    """
    r = lam.size
    # vec t = J z for z = (alpha, beta): row (a, j) of J picks alpha_j + beta_a lam_j.
    # The gradient of g is c - J^T vec P, c = (1, lam), and its Hessian J^T P^2 J
    jac = np.hstack([np.tile(np.eye(r), (r, 1)),
                     np.repeat(np.eye(r), r, axis=0) * np.tile(lam, r)[:, None]])
    free = jac[:, :-1]  # beta_r = 0
    c = np.concatenate([np.ones(r), lam])
    z = np.concatenate([r / 2 * (1 + lam / lam[-1]), r / 2 * (1 / lam - 1 / lam[-1])])
    residual = np.inf
    for steps in range(sdpmod.MAX_ITER + 1):
        t = jac @ z
        if not t.min() > 0:  # NaN included
            break
        p = 1 / t
        grad = c - p @ jac
        residual = np.abs(grad).max()
        if residual <= CENTRE_TOL or steps == sdpmod.MAX_ITER:
            break
        step = np.linalg.solve((free.T * (p * p)) @ free, -grad[:-1])
        decrement2 = -grad[:-1] @ step
        s = 1.0
        if decrement2 > 0.01:
            # g(z + s dz) - g(z) = s c . dz - sum log1p(s u), u = (J dz) / t
            u = (free @ step) * p
            lin = c[:-1] @ step
            while not ((1 + s * u).min() > 0
                       and s * lin - np.log1p(s * u).sum() <= -0.25 * s * decrement2):
                s /= 2
        z[:-1] += s * step
    if not residual <= CENTRE_TOL:
        raise sdpmod.NumericalLimitError(
            f"the one-state centre's Newton stopped after {steps} steps at primal residual "
            f"{residual:.3e} (> CENTRE_TOL {CENTRE_TOL:g})")
    return sdpmod.SdpSolution(
        x=np.diag(p), objective_value=float(p.sum()), primal_residual=float(residual),
        dual_residual=0.0, status=sdpmod.STATUS_OPTIMAL, iterations=steps, rank=r * r,
        message=ONE_STATE_CENTRE,
    )


def build_via_sdp(sigmas, b=None, feas_tol: float = sdpmod.FEAS_TOL) -> SdpChannelResult:
    """A CPTP channel fixing every given state: the SDP core X, completed by B.

    Compress, solve, lift. U = ``forced_algebra(sigmas).support`` is the
    isometry onto supp rho, rho = sum_i sigma_i / k, r = rank rho.
    Compress: the states U^dag sigma_i U have a mean of full rank r; real
    states, with the real face their forced algebra gives, are solved in
    real arithmetic (``sdp.assemble_fixed_point_constraints``).
    Solve: the core Y on C^r (x) C^r ranges over the Choi matrices that fix
    them and preserve the trace (``sdp.assemble_fixed_point_constraints``),
    on the face of the commutant of the forced algebra
    (``ForcedAlgebra.face``); ``solution.x`` is this r^2 x r^2 core. Lift:
    X = (U (x) conj U) Y (U (x) conj U)^dag vanishes on inputs outside
    supp rho and has tr_H1[X] = Pi^T, with Pi = U U^dag the projector onto
    supp rho. So the completion is C = X + B (x) (I - Pi)^T: CP whenever Y
    is PSD, B entering only off supp rho. The objective tr Y equals r on
    the whole feasible set, which has an interior on the face, so the
    interior-point method returns a point inside it, a generic admissible
    channel.

    A single state with r >= 2 is rho itself, diagonal on its own
    eigenvectors, so its core is that of diag(lambda), lambda its
    eigenvalues above the cut (``ForcedAlgebra.eigenvalues``), not of the
    rounded U^dag sigma U. For it the analytic centre is returned with no
    assembly and no interior-point solve: the classical channel Y =
    diag(vec P) of ``_one_state_centre``, a column-stochastic P with
    stationary lambda, of status optimal, iterations its Newton steps,
    objective sum P = r and the message ONE_STATE_CENTRE. feas_tol acts
    only on the interior-point solves.

    When that commutant is C I, the face is one ray and the only feasible
    core is |I_r>><<I_r|, which lifts to Choi(Y -> Pi Y Pi). It is
    returned without assembly or solve, as a solution of status optimal,
    0 iterations, objective r and the message IDENTITY_FORCED, and lifted
    like any other core. That choice is safe even when wrong, since the
    identity on supp rho is always feasible.

    An eigenvalue lambda of rho cut by ``linops.support`` leaves a state
    fixed only to about sqrt(k lambda) in trace distance, so a residual above
    ``channel.FP_TOL`` raises NumericalLimitError with the largest eigenvalue
    cut: no channel is returned that leaves a given state unfixed.

    Its decay is the spectrum of C (module docstring); decay_modulus > 1
    diverges.
    """
    states = linops.check_states(sigmas)
    d = states.shape[1]
    b = np.eye(d, dtype=complex) / d if b is None else linops.check_density(b)
    if b.shape != (d, d):
        raise ValueError("decay state dimension mismatch")

    algebra = _forced_algebra(states)
    u = algebra.support
    r = u.shape[1]
    if algebra.commutant_dim == 1:
        sol = _identity_core(r)
    elif len(states) == 1:
        sol = _one_state_centre(algebra.eigenvalues[d - r:])
    else:
        problem = sdpmod.assemble_fixed_point_constraints(linops.dagger(u) @ states @ u)
        sol = sdpmod.solve(problem, feas_tol=feas_tol, face=algebra.face)
    if sol.status != sdpmod.STATUS_OPTIMAL:
        # the identity channel fixes every state, so the constraints are
        # always feasible and an "infeasible" verdict is numerical as well
        raise sdpmod.NumericalLimitError(
            f"SDP solve hit its numerical limit ({sol.status}): "
            f"{sol.message or 'no convergence'}"
        )

    lift = np.kron(u, u.conj())
    x = hermitize(lift @ sol.x @ linops.dagger(lift))
    c = _complete(x, b)
    residuals = [trace_distance(chan.apply(c, s), s) for s in states]
    if max(residuals) > chan.FP_TOL:
        raise sdpmod.NumericalLimitError(
            f"the channel fixes the states only to {max(residuals):.3e} (> FP_TOL); the largest "
            f"eigenvalue of rho cut from its support is "
            f"{algebra.eigenvalues[:d - r].max(initial=0.0):.3e}")
    return SdpChannelResult(x=ChoiMatrix(d, d, x), c=c, spectrum=chan.spectrum(c),
                            residuals=residuals, solution=sol)
