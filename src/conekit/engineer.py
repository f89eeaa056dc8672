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
* the SDP core: the analytic centre of the PSD X that fix every state and
  preserve the trace on supp rho, rho = sum_i sigma_i / k, formed in
  closed form on supp rho (``build_via_sdp``).

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
onto it (r = rank rho), forms a PSD core Y on C^r (x) C^r that fixes
them and preserves the trace, and lifts it once,
X = (U (x) conj U) Y (U (x) conj U)^dag; ``SdpChannelResult.solution.x``
is that r^2 x r^2 Y. So X vanishes on inputs outside supp rho,
tr_H1[X] = Pi^T with Pi = U U^dag, tr X = r on the whole feasible set,
and C = X + B (x) (I - Pi)^T is a sum of two PSD terms: B acts only off
supp rho. As every feasible Y is optimal, the core is the one canonical
choice among them, the analytic centre of the feasible set, max log det Y,
which is unique and basis-free (``_analytic_centre``). The states decide
it through their forced algebra (``forced_algebra``): every Kraus operator
lies in its commutant, a direct sum of blocks I_{n_k} (x) M_{m_k}, and
the centre is the identity on each n_k factor times the one-state centre
of that block's part of rho on the m_k factor, a classical channel in its
eigenbasis with a closed form up to one small Newton solve
(``_one_state_centre``). So a commutant C I gives the identity on supp
rho, Y = |I_r>><<I_r|, as one pure state does, with X = sigma (x) sigma^T;
one state of rank r >= 2 gives a classical channel on its eigenbasis (for
diag(0.7, 0.3), log det Y = -3.0798); and the ``demo bell`` pairs, whose
blocks all have m_k = 1, give the pinching onto the blocks.

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


# Two values closer than this are one wherever the forced algebra is read
# off a spectrum: log-eigenvalue differences of rho (one modular degree of
# ``forced_algebra``) and the eigenvalues of a central element (one block of
# ``_blocks``). Merging two modular degrees only shrinks the generated
# algebra, which enlarges the face and never excludes a channel; two blocks
# differ on some element of the centre's basis by at least 2 sqrt(2) / r
# (``_blocks``), far above it. It also bounds how far the root of a block's
# share of the commutant, m_k, may sit from an integer (``_blocks``): that
# share is a sum of r^2 squares of orthonormal coordinates, exact to rounding.
MODULAR_GAP_TOL = 1e-8


@dataclass(frozen=True)
class ForcedAlgebra:
    """What fixing the states forces on every channel core of ``build_via_sdp``.

    support is an isometry U onto supp rho, rho = sum_i sigma_i / k
    (``linops.support``), r = rank rho, and eigenvalues the spectrum of rho
    it was cut from, ascending, so that U^dag rho U = diag(eigenvalues[-r:])
    up to rounding. ``build_via_sdp`` forms the r^2 x r^2 core Y in these r
    coordinates (``SdpChannelResult.solution.x``) and lifts it through U
    once, so the rest is given in them.

    commutant holds an orthonormal basis (Frobenius inner product) of the
    commutant C of the forced algebra, as r x r matrices. Every Kraus
    operator K of an admissible channel on supp rho lies in C, and Y is the
    sum of |K>><<K| over them, so Y lies on the face of the PSD cone over
    vec C: facial reduction (Borwein & Wolkowicz 1981) with the face read
    off the algebra. The commutant is C I, commutant_dim 1, exactly when
    the forced algebra is all of B(supp rho), and all of M_r for one state.

    blocks holds (Z_k, n_k, m_k): the minimal central projections Z_k of C,
    on whose ranges C^{n_k} (x) C^{m_k} the commutant is I_{n_k} (x) M_{m_k}
    and the forced algebra M_{n_k} (x) I_{m_k} (the Koashi-Imoto form,
    Koashi & Imoto, PRA 66, 022318, 2002). M_r is the one block (I, 1, r)
    and C I the one block (I, r, 1), both read off the dimension; any other
    commutant is split by its centre (``_blocks``).
    """

    support: np.ndarray
    eigenvalues: np.ndarray
    commutant: np.ndarray
    blocks: tuple[tuple[np.ndarray, int, int], ...]

    @property
    def commutant_dim(self) -> int:
        return self.commutant.shape[0]


def forced_algebra(sigmas) -> ForcedAlgebra:
    """The support of rho, the commutant of the forced algebra and its blocks.

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
    A = I, so the commutant is all of M_r with no stack, whose rounding
    would grow as 1 / lambda_min. All of M_r is given by the matrix units
    and C I by I / sqrt r, exactly.
    """
    return _forced_algebra(linops.check_states(sigmas))


def _forced_algebra(states: np.ndarray) -> ForcedAlgebra:
    """``forced_algebra`` of a validated (k, d, d) stack of states."""
    eigenvalues, u = linops.support(states.mean(axis=0))
    r = u.shape[1]
    lam = eigenvalues[eigenvalues.size - r:]
    c = r * r
    if len(states) > 1:
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
        null = sv <= RANK_TOL
        c = int(null.sum())
        commutant = vh[null].conj().reshape(-1, r, r)
    # all of M_r and C I are read off exactly: the matrix units and I / sqrt r
    if c == r * r:
        commutant = np.eye(r * r, dtype=complex).reshape(-1, r, r)
    elif c == 1:
        commutant = np.eye(r, dtype=complex)[None] / np.sqrt(r)
    return ForcedAlgebra(support=u, eigenvalues=eigenvalues, commutant=commutant,
                         blocks=_blocks(commutant))


def _blocks(commutant: np.ndarray) -> tuple[tuple[np.ndarray, int, int], ...]:
    """``ForcedAlgebra.blocks`` of the commutant with orthonormal basis C_j.

    The centre of C is its meet with the forced algebra, the
    X = sum_i x_i C_i with [X, C_j] = 0 for every j: the null space of the
    stacked commutators [C_i, C_j], at singular values at most RANK_TOL as
    in ``forced_algebra``. Its minimal projections Z_k are the joint
    eigenspaces of its basis, deterministically (Murota, Kanno, Kojima &
    Kojima, JJIAM 27, 2010): supp rho is split by the eigenvalues
    (``linops.tolerance_groups`` at MODULAR_GAP_TOL) of X + X^dag and
    i (X - X^dag) for each basis element X in turn. The basis is
    orthonormal, so the values x_s(k) of the X_s on block k of dimension
    d_k have sum_s |x_s(k) - x_s(l)|^2 = 1/d_k + 1/d_l >= 4/r, and two
    blocks differ by at least 2 sqrt(2) / r in one of those 2 dim(centre)
    <= 2r eigenvalues. Then m_k^2 = dim Z_k C Z_k = sum_j |Z_k C_j Z_k|_F^2
    and n_k = rank Z_k / m_k. A split that breaks the block structure raises
    NumericalLimitError: other than dim(centre) blocks, a root m_k more than
    MODULAR_GAP_TOL from an integer, an m_k that does not divide rank Z_k,
    or sum m_k^2 other than dim C.
    """
    c, r, _ = commutant.shape
    eye = np.eye(r, dtype=complex)
    if c == r * r:
        return ((eye, 1, r),)
    if c == 1:
        return ((eye, r, 1),)
    # [C_i, C_j] at axes (j, i, a, b), as rows (j, a, b) over the coordinates x_i
    comm = commutant[None] @ commutant[:, None] - commutant[:, None] @ commutant[None]
    _, sv, vh = np.linalg.svd(comm.transpose(0, 2, 3, 1).reshape(-1, c), full_matrices=False)
    centre = np.tensordot(vh[sv <= RANK_TOL].conj(), commutant, axes=1)
    hermitian = [h for x in centre for h in (x + linops.dagger(x), 1j * (x - linops.dagger(x)))]
    parts = [eye]  # isometries onto the blocks found so far
    for h in hermitian:
        if len(parts) == len(centre):
            break
        split = []
        for w in parts:
            vals, vecs = np.linalg.eigh(linops.dagger(w) @ h @ w)
            labels = linops.tolerance_groups(vals, MODULAR_GAP_TOL)
            split += [w @ vecs[:, labels == g] for g in range(labels[-1] + 1)]
        parts = split
    if len(parts) != len(centre):
        raise sdpmod.NumericalLimitError(
            f"the centre of the commutant has dimension {len(centre)}, but its elements "
            f"split supp rho into {len(parts)} blocks")
    blocks = []
    for w in parts:
        root = np.sqrt(np.square(np.abs(linops.dagger(w) @ commutant @ w)).sum())
        m = max(int(round(root)), 1)
        if abs(root - m) > MODULAR_GAP_TOL or w.shape[1] % m:
            raise sdpmod.NumericalLimitError(
                f"a block of rank {w.shape[1]} holds a part of dimension {root ** 2:.6g} of the "
                f"commutant, not m^2 for an m dividing its rank")
        blocks.append((w @ linops.dagger(w), w.shape[1] // m, m))
    held = sum(m * m for _, _, m in blocks)
    if held != c:
        raise sdpmod.NumericalLimitError(
            f"the blocks hold {held} dimensions of the commutant, which has {c}")
    return tuple(blocks)


ANALYTIC_CENTRE = "closed form: the analytic centre of the fixing cores, block by block"

# the primal residual at which the dual Newton of ``_one_state_centre`` stops:
# its entries are sums of r terms of at most 1, which rounding leaves near
# r * 1e-16
CENTRE_TOL = 1e-13


def _one_state_centre(lam: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The analytic centre of the cores that fix one state of spectrum lam
    (r >= 2 eigenvalues, ascending, summing to 1), max log det Y over the
    feasible set (Boyd & Vandenberghe, Convex Optimization, 2004, sect.
    8.5.3): Y = diag(vec P) on the eigenbasis, returned as P[a, j] =
    Y[(a, j), (a, j)] with its Newton steps and primal residual.

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
    return p.reshape(r, r), steps, float(residual)


def _analytic_centre(algebra: ForcedAlgebra) -> sdpmod.SdpSolution:
    """The analytic centre of the cores on C^r (x) C^r that fix the states and
    preserve the trace, max log det Y on the face of ``ForcedAlgebra``, as
    the SDP's solution: Y = M Pi_C, with Pi_C the orthogonal projector onto
    vec C and M = sum_k n_k sum_{G, G'} P_k[G, G'] Q_G (x) Q_G'^T.

    The states are sum_k p_ik sigma_ik (x) omega_k on the blocks of
    ``ForcedAlgebra.blocks``, and every Kraus operator is sum_k I (x) K_k,
    so a core fixes them and preserves the trace exactly when each
    rho -> sum K_k rho K_k^dag is a channel fixing omega_k: the rows touch
    only the diagonal blocks of the core on the face. By Fischer's
    inequality its log det is largest with the blocks across k at 0, and on
    block k it is id_{n_k} (x) the one-state centre of omega_k
    (``_one_state_centre``), diagonal in omega_k's eigenbasis. That basis
    comes from R = E_C(diag lambda), the orthogonal projection of
    U^dag rho U onto C, which is I_{n_k} (x) q_k omega_k / n_k on Z_k: its
    eigenvalues there, ascending, are omega_k's, scaled, each n_k times in a
    run, and its eigenprojections Q_G are I_{n_k} (x) those of omega_k. The
    centre's P_k
    is constant on each pair of eigenspaces G, G' (unitaries inside an
    eigenspace commute with omega_k), so in an eigenbasis V of R, taken
    block by block, M is (V (x) conj V) D (V (x) conj V)^dag with the
    diagonal weights D = n_k P_k[a, j] on block k. A block of m_k = 1 has
    P = [[1]], and M_k Pi_C = |Z_k>><<Z_k| is the identity on it, with no
    R, eigensolve or Newton step. So C I gives |I_r>><<I_r|, and M_r, where
    R = diag lambda and Pi_C = I, gives diag(vec P) on the eigenbasis of rho
    with no eigensolve. The centre is basis-free, built from projectors and
    spectra only.

    The solution has status optimal, iterations the Newton steps summed
    over the blocks, primal_residual their largest residual, rank dim C
    and the message ANALYTIC_CENTRE.
    """
    k = algebra.commutant
    c, r, _ = k.shape
    lam = algebra.eigenvalues[algebra.eigenvalues.size - r:]
    steps, residual = 0, 0.0
    if c == r * r > 1:  # C = M_r, the one block (I, 1, r): R = diag lambda, V = I, Pi_C = I
        p, steps, residual = _one_state_centre(lam)
        y = np.diag(p.ravel().astype(complex))
    else:
        y = np.zeros((r * r, r * r), dtype=complex)
        wide = [(z, n, m) for z, n, m in algebra.blocks if m > 1]
        for z, _, m in algebra.blocks:
            if m == 1:  # M_k Pi_C = n Z (x) Z^T |Z>><<Z| / n, the identity on the block
                y += np.outer(z.ravel(), z.ravel().conj())
        if wide:
            vecs = k.reshape(c, r * r)
            rr = ((vecs[:, ::r + 1].conj() @ lam) @ vecs).reshape(r, r)  # E_C(diag lam)
            m_sum = np.zeros_like(y)  # M over the blocks of m_k > 1
            for z, n, m in wide:
                w, v = np.linalg.eigh(z @ rr @ z)
                w, v = w[-n * m:], v[:, -n * m:]  # R is positive on Z_k and 0 off it
                omega = w.reshape(m, n).sum(axis=1)
                p, s, res = _one_state_centre(omega / omega.sum())
                steps, residual = steps + s, max(residual, res)
                lift = (v[:, None, :, None] * v.conj()[None, :, None, :]).reshape(r * r, -1)  # V (x) conj V
                m_sum += n * (lift * p.repeat(n, axis=0).repeat(n, axis=1).ravel()) @ linops.dagger(lift)
            y += m_sum @ (vecs.T @ vecs.conj())
    return sdpmod.SdpSolution(
        x=y, objective_value=float(np.trace(y).real), primal_residual=residual,
        dual_residual=0.0, status=sdpmod.STATUS_OPTIMAL, iterations=steps, rank=c,
        message=ANALYTIC_CENTRE,
    )


def build_via_sdp(sigmas, b=None) -> SdpChannelResult:
    """A CPTP channel fixing every given state: the SDP core X, completed by B.

    Compress, centre, lift. U = ``forced_algebra(sigmas).support`` is the
    isometry onto supp rho, rho = sum_i sigma_i / k, r = rank rho. The core
    Y on C^r (x) C^r ranges over the Choi matrices that fix the compressed
    states U^dag sigma_i U and preserve the trace
    (``sdp.assemble_fixed_point_constraints`` states these rows), on the
    face of the commutant of their forced algebra. Every such Y has
    tr Y = r, so each one is optimal, and the core is the analytic centre,
    formed in closed form with no assembly and no interior-point solve
    (``_analytic_centre``; ``solution.x`` is this r^2 x r^2 core). It
    depends on the states only through that commutant and the spectrum
    lambda of rho above the cut (``ForcedAlgebra.eigenvalues``), never
    through the rounded U^dag sigma_i U, so listing a state twice, or
    writing the states in another basis, gives the same channel. Lift:
    X = (U (x) conj U) Y (U (x) conj U)^dag vanishes on inputs outside
    supp rho and has tr_H1[X] = Pi^T, with Pi = U U^dag the projector onto
    supp rho. So the completion is C = X + B (x) (I - Pi)^T: CP, as Y is
    PSD, B entering only off supp rho.

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
    sol = _analytic_centre(algebra)
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
