"""Iterated-channel simulation of a classical process.

One round = settle, classify, kick: settle the state rho to P1 rho, the
limit of Phi^n(rho) under the multi-fixed-point channel Phi, in one
product with the spectral projector P1 onto the fixed space; record which
canonical fixed point it settled into (the emitted symbol), then kick the
state away with a random channel and repeat. n_iter is the settle budget:
a run whose predicted settle count (from the channel's decay modulus)
exceeds it, or whose iterates never settle, is rejected before round 1,
and each round records that predicted count as ``settle_steps``. The
emitted symbol sequence is a classical stochastic process;
``estimate_process`` tabulates its empirical transition matrix and
``to_quasi_realization`` packages that as a positive realization for the
quasi-realization toolkit.

Two classification modes. "nearest" deterministically picks the closest
canonical fixed point by trace distance, with None beyond classify_tol.
"sample" treats the settled state as a classical mixture over the fixed
points: it resolves the state into nonnegative barycentric weights
(least squares over the fixed-point set, nonnegative), draws the symbol
from those weights, and collapses the state onto the drawn fixed point
before kicking — the readout a classical observer of the fixed-point
sectors would perform. A channel whose fixed set is a simplex never
moves an interior state to a vertex (the map is linear and its fixed
set convex), so only the sampling mode yields a non-degenerate symbol
process for such channels.

Kick policies: a fixed channel, conjugation by a fresh Haar-random
unitary each round (sampled from the run's seeded generator), or a
depolarizing map of given strength. Everything is deterministic under
the configured seed.

The per-round draw contract, which keeps seeded trajectories the same
from one version to the next: a classified "sample"-mode round draws one
uniform for its symbol, before the kick draws anything; an unclassified
round and every "nearest"-mode round draw none; a Haar kick then draws
2*d**2 standard normals, a fixed or depolarizing kick none. Whether a
round draws depends on its state. "sample" mode still runs in blocks of
rounds whose draws are taken ahead, in this order and as if every round
were classified; when a round turns out unclassified, the generator is
rewound and the draws of the rounds kept are taken again, so seeded
trajectories are the same as one round at a time (see ``run``).

Both modes resolve every settled state into its barycentric weights over
the fixed points, which draws nothing from the generator, and keep them,
with the decomposition residual, on the Round. How is decided once per
run, from the fixed points alone (``_Readout``). When the readout is
linear, the least-squares weights of every state are nonnegative, so
they are its NNLS weights, and one matrix product gives them for a
whole stack of states; the fixed points of ``channel.fixed_points``
have orthogonal supports, which makes their readout linear. Any other
readout is resolved by NNLS, row by row. A linear readout whose fixed
points also span the fixed space is classical: {H_l} is then a POVM,
no round goes unclassified, and sample mode is the Markov chain that
``exact_process`` returns, so its blocks run whole (see ``run``).
A trajectory is written as JSONL, one line per round carrying the
process, not the states:

    {"round": i, "symbol": s | null, "settle_steps": n,
     "weights": [w_0, ..., w_k-1], "residual": r}

and line 0 alone adds ``"fixed_points"``, the canonical fixed states as
matrix JSON, so the file describes itself. Neither the settled nor the
post-kick state is written; both stay on the in-memory Round, and
``run`` reproduces them from the config and seed. Reading a trajectory
takes only ``round``, ``symbol`` and ``settle_steps`` from each line, so
files that also hold the states (the earlier format) read the same.
Integer fields are read strictly: a bool, a non-integral number or a
string is rejected, never coerced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.linalg.lapack import zgeqrf, zungqr
from scipy.optimize import nnls

from . import channel as chan
from . import linops
from .channel import ChoiMatrix
from .linops import hermitize, trace_distance
from .quasireal import QuasiRealization

CLASSIFY_TOL = 1e-3
SETTLE_TOL = 1e-10
TIE_TOL = 1e-9  # nearest-mode ties: above the settle error, about 1e-10
BLOCK = 256     # most sample-mode rounds evaluated together (see run)
MIN_BLOCK = 8   # fewest: a shorter block costs more than its rounds one at a time
CLASSIFY_MODES = ("nearest", "sample")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with
    the phases of R's diagonal folded back in (Mezzadri 2007).

    Draws 2*dim**2 standard normals, the real parts first. The QR is
    LAPACK's zgeqrf / zungqr called directly, the pair that
    ``np.linalg.qr`` runs, without its wrapper's cost; R's diagonal is
    the diagonal of the factored matrix.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    qr, tau, _, _ = zgeqrf(z)
    q, _, _ = zungqr(qr, tau)
    d = qr.diagonal()
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class FixedKick:
    """Apply one fixed channel every round."""

    choi: ChoiMatrix

    def __post_init__(self):
        chan.require_cptp(self.choi, "FixedKick")

    def apply(self, rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return chan.apply(self.choi, rho)


@dataclass(frozen=True)
class HaarUnitaryKick:
    """Conjugate by a fresh Haar-random unitary each round."""

    def apply(self, rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = haar_unitary(rho.shape[0], rng)
        return u @ rho @ linops.dagger(u)


@dataclass(frozen=True)
class DepolarizingKick:
    """Mix toward the maximally mixed state with the given strength."""

    strength: float

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1]")

    def apply(self, rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        d = rho.shape[0]
        return (1.0 - self.strength) * rho + self.strength * np.eye(d, dtype=complex) / d


KickPolicy = Union[FixedKick, HaarUnitaryKick, DepolarizingKick]


@dataclass(frozen=True)
class SimulationConfig:
    """A settle / classify / kick run (see ``run``).

    classify_tol is at least ``linops.RANK_TOL``, the rank cut below which
    a number is rounding. A decomposition residual that should be 0 comes
    out at up to about 1e-15, and its value depends on how the weights were
    computed: by one product for a block of rounds or one round at a time.
    Below that floor, classification would be a property of that rounding,
    and a blocked run and the same rounds run alone could differ; from it
    up, it is a property of the settled state.
    """

    channel: ChoiMatrix
    kick: KickPolicy
    n_iter: int
    n_rounds: int
    classify_tol: float = CLASSIFY_TOL
    classify_mode: str = "nearest"
    seed: int = 0

    def __post_init__(self):
        chan.require_cptp(self.channel, "SimulationConfig")
        if self.channel.d_in != self.channel.d_out:
            raise ValueError("simulation channel must be square")
        d = self.channel.d_in
        if isinstance(self.kick, FixedKick) and (self.kick.choi.d_in, self.kick.choi.d_out) != (d, d):
            k = self.kick.choi
            raise ValueError(f"kick channel is {k.d_in}->{k.d_out}, the simulation channel is {d}->{d}")
        if self.n_iter < 1 or self.n_rounds < 1:
            raise ValueError("n_iter and n_rounds must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.classify_tol) and self.classify_tol >= linops.RANK_TOL):
            raise ValueError(f"classify_tol must be positive and finite, at least "
                             f"linops.RANK_TOL = {linops.RANK_TOL:g}, got {self.classify_tol}")
        if self.classify_mode not in CLASSIFY_MODES:
            raise ValueError(f"classify_mode must be one of {CLASSIFY_MODES}")


@dataclass(frozen=True)
class Round:
    settled_state: np.ndarray
    symbol: int | None          # index into the canonical fixed points, None if unclassified
    settle_steps: int
    post_kick_state: np.ndarray
    weights: np.ndarray         # settled state's nonnegative weights over the fixed points
    residual: float             # 2-norm residual of that decomposition


@dataclass
class Trajectory:
    rounds: list[Round]
    fixed_points: list[np.ndarray] = field(default_factory=list)

    def symbols(self) -> list[int | None]:
        return [r.symbol for r in self.rounds]


def _stack_re_im(m: np.ndarray) -> np.ndarray:
    """Each complex matrix of a contiguous stack as one real row, a view:
    the real and imaginary part of each entry in turn, in row-major
    order."""
    n, d = m.shape[:2]
    return m.reshape(n, d * d).view(np.float64)


@dataclass(frozen=True)
class _Readout:
    """The fixed points as the basis every settled state is resolved in:
    column j of ``columns`` is fixed point j stacked by ``_stack_re_im``.

    The least-squares weights of a settled state are real-linear in the
    state X before settling, w_l(X) = tr(H_l X) with H_l Hermitian: the
    pseudo-inverse of ``columns`` composed with the settle map. The readout
    is linear when the fixed points are independent and every H_l is
    positive semidefinite (least eigenvalue >= -RANK_TOL): then the
    least-squares weights of every state are nonnegative, so they are its
    NNLS weights. It is classical when it is linear and the k fixed points
    also span the fixed space (k = rank P1 = tr P1): then every settled
    state is their convex combination, {H_l} is a POVM, and sample mode is
    the Markov chain of ``exact_process``.
    """

    states: np.ndarray     # (k, d, d): the canonical fixed points
    settle_map: np.ndarray  # P1^T, contiguous: row vec(rho) @ P1^T is vec of its settled limit
    columns: np.ndarray    # (2 d^2, k), contiguous as ``nnls`` takes it
    h: np.ndarray = field(init=False)              # (k, d, d): H_0, ..., H_{k-1}
    least_squares: np.ndarray = field(init=False)  # (2 d^2, k): pinv(columns)^T; b @ it weighs rows b
    linear: bool = field(init=False)
    classical: bool = field(init=False)

    def __post_init__(self):
        k, d = self.states.shape[:2]
        pinv = np.linalg.pinv(self.columns)
        g = (pinv[:, 0::2] - 1j * pinv[:, 1::2]).reshape(k, d, d)
        c = (hermitize(g).reshape(k, d * d) @ self.settle_map.T).reshape(k, d, d)
        h = (c.swapaxes(1, 2) + c.conj()) / 2.0
        linear = bool(np.linalg.matrix_rank(self.columns) == k
                      and np.linalg.eigvalsh(h).min() >= -linops.RANK_TOL)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "least_squares", np.ascontiguousarray(pinv.T))
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "classical",
                           linear and k == round(np.trace(self.settle_map).real))

    @classmethod
    def of(cls, fp_set: chan.FixedPointSet) -> "_Readout":
        states = np.array(fp_set.states, dtype=complex)
        return cls(states, np.ascontiguousarray(fp_set.projector.T),
                   np.ascontiguousarray(_stack_re_im(states).T))

    def settle(self, rho: np.ndarray) -> np.ndarray:
        """P1 rho, the settled limit, of each state of a stack."""
        n, d = rho.shape[:2]
        return hermitize((rho.reshape(n, d * d) @ self.settle_map).reshape(n, d, d))


def _fixed_point_weights(settled: np.ndarray, readout: _Readout) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative barycentric weights of each state of a stack over the
    fixed points, one row per state, and the 2-norm residual of each
    decomposition. On a linear readout they are the least-squares weights,
    one product for the whole stack, with rounding below 0 clipped; on any
    other, NNLS through the module-level ``nnls``, row by row."""
    b = _stack_re_im(settled)
    if readout.linear:
        weights = np.maximum(b @ readout.least_squares, 0.0)
        return weights, np.linalg.norm(b - weights @ readout.columns.T, axis=1)
    weights, residuals = np.empty((len(b), readout.columns.shape[1])), np.empty(len(b))
    for i, row in enumerate(b):
        weights[i], residuals[i] = nnls(readout.columns, row)
    return weights, residuals


def _inverse_cdf(p: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """For each row of probabilities p, the index ``rng.choice(len(p), p=p)``
    returns when the uniform it draws is that row's entry of ``uniforms``:
    the inverse-CDF step that choice itself runs, without its validation
    of p."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= uniforms[..., None]).sum(axis=-1)


def _draw_symbol(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(weights), p=weights / total)``: one uniform drawn,
    the same index returned."""
    return int(_inverse_cdf(weights / total, np.float64(rng.random())))


def _settle_steps(spec: chan.Spectrum, n_iter: int) -> int:
    """Predicted settle count: the smallest n >= 1 with decay_modulus^n <=
    SETTLE_TOL, infinite when a peripheral eigenvalue other than 1 keeps the
    iterates from settling. Raises ValueError when it exceeds n_iter."""
    stuck = [z for z in spec.peripheral_spectrum if abs(z - 1.0) > chan.FP_TOL]
    m = spec.decay_modulus
    if stuck:
        steps, cause = math.inf, f"peripheral eigenvalue {stuck[0]:.6g}"
    else:
        steps = 1 if m <= SETTLE_TOL else math.ceil(math.log(SETTLE_TOL) / math.log(m))
        cause = f"decay modulus {m:.6g}"
    if steps > n_iter:
        raise ValueError(
            f"settling to {SETTLE_TOL:g} takes a predicted {steps} steps at the {cause}, "
            f"more than n_iter = {n_iter}"
        )
    return steps


def _classify(config: SimulationConfig, readout: _Readout, state: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float, int | None]:
    """Settle a state and classify it: the settled state, its weights and
    residual, and the symbol (None when unclassified)."""
    settled = readout.settle(state[None])
    weights, resid = _fixed_point_weights(settled, readout)
    settled, weights, resid = settled[0], weights[0], float(resid[0])
    if config.classify_mode == "sample":
        total = weights.sum()
        if resid <= config.classify_tol and total > 0:
            return settled, weights, resid, _draw_symbol(weights, total, rng)
        return settled, weights, resid, None
    dists = np.array([trace_distance(settled, fp) for fp in readout.states])
    best = int(np.flatnonzero(dists <= dists.min() + TIE_TOL)[0])
    return settled, weights, resid, (best if dists[best] <= config.classify_tol else None)


@dataclass(frozen=True)
class _WeightTable:
    """The least-squares weights of the state a classified sample-mode round
    leaves, for each symbol it may draw, without forming those states. On a
    linear readout (``_Readout``) they are the weights
    ``_fixed_point_weights`` resolves, up to rounding; on any other they
    predict its NNLS weights, which are the same wherever the
    least-squares ones are nonnegative.

    A round that draws symbol j leaves U T_j U^dag: T_j is fixed point j
    (kicked once, for a fixed or depolarizing kick) and U the round's
    Haar unitary (the identity for the other kicks). Its weights are
    w_l(U T_j U^dag) = tr(H_l U T_j U^dag), H_l the readout's. So with
    T_j = sum_a lam_a v_a v_a^dag and y_a = U v_a, w_l(U T_j U^dag) =
    sum_a lam_a y_a^dag H_l y_a, two matrix products per block of rounds.
    """

    targets: np.ndarray     # (k, d, d): T_j
    haar: bool
    h: np.ndarray           # (k d, d): H_0, ..., H_{k-1} stacked
    vecs: np.ndarray        # (d, m): the eigenvectors v_a of T_0, T_1, ...
    lam_groups: np.ndarray  # (m, k): lam_a in the column of the T_j it belongs to

    @classmethod
    def of(cls, config: SimulationConfig, readout: _Readout,
           rng: np.random.Generator) -> "_WeightTable":
        fps = readout.states
        k, d = fps.shape[:2]
        haar = isinstance(config.kick, HaarUnitaryKick)
        # a fixed or depolarizing kick draws nothing from rng
        targets = fps if haar else np.array([hermitize(config.kick.apply(fp, rng)) for fp in fps])
        lams, vecs = np.linalg.eigh(targets)
        # the table only predicts, so eigenvalues below 1e-15 may go
        j, a = np.nonzero(np.abs(lams) > 1e-15)
        lam_groups = np.zeros((len(j), k))
        lam_groups[np.arange(len(j)), j] = lams[j, a]
        return cls(targets, haar, readout.h.reshape(k * d, d), vecs[j, :, a].T, lam_groups)

    def weights(self, unitaries: np.ndarray | None) -> np.ndarray:
        """(n, k, k): entry [b, j, l] is the weight l of the state settled
        from U_b T_j U_b^dag, for each U_b of a stack of n (n = 1 and U = I
        when ``unitaries`` is None)."""
        y = self.vecs[None] if unitaries is None else unitaries @ self.vecs
        n, d, m = y.shape
        k = len(self.targets)
        y = y.transpose(1, 0, 2).reshape(d, n * m)
        q = (y.conj() * (self.h @ y).reshape(k, d, n * m)).sum(axis=1).real
        return (q.reshape(k * n, m) @ self.lam_groups).reshape(k, n, k).transpose(1, 2, 0)


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """``haar_unitary`` of each round's 2 d^2 normals, by one stacked QR."""
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0))
    diag = r.diagonal(axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _sample_block(config: SimulationConfig, readout: _Readout, table: _WeightTable, first: tuple,
                  steps: int, rng: np.random.Generator, length: int) -> list[Round]:
    """The rounds of a sample-mode run from a classified one, up to
    ``length`` of them, the same as run one at a time.

    ``first`` is what ``_classify`` gave for the first round: its settled
    state, weights, residual and symbol. The draws of every round are
    taken ahead, in the draw contract's order and as if every round were
    classified. The weight table predicts the symbol path; then only that
    path's states are formed and resolved by ``_fixed_point_weights``,
    and each symbol is drawn again from the weights so found. The rounds
    kept are those before the first that is unclassified or whose symbol
    differs from the prediction. When that cuts the block short, the
    generator is rewound and ``draw`` takes the kept rounds' draws again,
    so it stands where one round at a time would leave it.
    """
    settled, weights, resid, symbol = first
    d = settled.shape[0]
    snapshot = rng.bit_generator.state
    uniforms = np.empty(length)  # the first round drew its uniform already
    normals = np.empty((length, 2, d, d)) if table.haar else None

    def draw(rounds: int) -> None:  # the first rounds' draws, in the contract's order
        for b in range(rounds):
            if b:
                uniforms[b] = rng.random()
            if table.haar:
                rng.standard_normal(out=normals[b])

    draw(length)
    unitaries = _haar_unitaries(normals) if table.haar else None

    # the predicted path: next_symbol[b][j] is round b + 1's symbol when round b
    # draws j, 0 when its predicted weights are all <= 0: the resolved weights
    # check that guess like any other
    predicted = np.maximum(table.weights(unitaries[:-1] if table.haar else None), 0.0)
    with np.errstate(invalid="ignore"):
        next_symbol = _inverse_cdf(predicted / predicted.sum(axis=-1, keepdims=True),
                                   uniforms[1:, None]).tolist()
    path = [symbol]
    for row in next_symbol:
        path.append(row[path[-1]])

    # the path's states and weights, and its symbols drawn from those
    symbols = np.array(path)
    post = table.targets[symbols]
    if table.haar:
        post = hermitize(unitaries @ post @ linops.dagger(unitaries))
    settled = np.concatenate([settled[None], readout.settle(post[:-1])])
    more_weights, more_resid = _fixed_point_weights(settled[1:], readout)
    totals = more_weights.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        redrawn = _inverse_cdf(more_weights / totals, uniforms[1:])
    ok = (more_resid <= config.classify_tol) & (totals[:, 0] > 0) & (redrawn == symbols[1:])
    kept = length if ok.all() else 1 + int(np.argmin(ok))
    if kept < length:
        rng.bit_generator.state = snapshot
        draw(kept)
    weights = np.concatenate([weights[None], more_weights])
    resid = [resid, *more_resid.tolist()]
    return [Round(settled_state=settled[b], symbol=path[b], settle_steps=steps,
                  post_kick_state=post[b], weights=weights[b], residual=resid[b])
            for b in range(kept)]


def _start(config: SimulationConfig, rho0) -> tuple[np.ndarray, chan.FixedPointSet, int, _Readout]:
    """What a run starts from: the checked initial state, the channel's
    fixed points, the predicted settle count and the readout."""
    state = linops.check_density(rho0, tol=1e-7)
    if state.shape != (config.channel.d_in,) * 2:
        raise ValueError("initial state dimension does not match the channel")
    fp_set = chan.fixed_points(config.channel)
    steps = _settle_steps(fp_set.spectrum, config.n_iter)
    return state, fp_set, steps, _Readout.of(fp_set)


def run(config: SimulationConfig, rho0) -> Trajectory:
    """Settle / classify / kick for n_rounds, deterministically under the seed.

    Each round settles the state rho to P1 rho (``FixedPointSet.projector``),
    the limit of Phi^n(rho). n_iter is the settle budget, checked once by
    ``_settle_steps``; each Round records its predicted count as
    settle_steps. Every round, in either mode, also records the settled
    state's barycentric weights over the fixed points and the residual of
    that decomposition: on a linear readout (``_Readout``) the
    least-squares ones, which are the NNLS ones, from one product; on any
    other, NNLS.

    In "nearest" mode classification picks the nearest canonical fixed
    point by trace distance (ties within TIE_TOL to the lowest index),
    records None when even the nearest one is farther than classify_tol,
    and the kick acts on the settled state. In "sample" mode the symbol is
    drawn from the settled state's barycentric weights over the fixed
    points (None when the decomposition residual exceeds classify_tol),
    the state collapses onto the drawn fixed point, and the kick acts on
    that. Unclassified rounds are recorded, never fatal.

    A "nearest"-mode round, and an unclassified one, runs alone. From a
    classified "sample"-mode round on, rounds run in blocks of up to BLOCK
    (``_sample_block``): such a round leaves one of k states, given its
    kick, so the next round's weights are tabulated ahead for all k and
    the symbol path is read off the table. The block ends before the first
    round the table cannot stand for, an unclassified one or one whose
    symbol it predicted wrongly, and that round runs alone. The draws are
    the contract's, in its order, so the trajectory is the one that
    running every round alone gives, whichever way blocks are cut.

    On a classical readout the table is exact and every settled state a
    convex combination of the fixed points, so no round goes unclassified:
    each classified round that runs alone starts a block of BLOCK rounds,
    or of all that remain. That holds because classify_tol is at least
    ``linops.RANK_TOL`` (``SimulationConfig``): whether a round is
    classified never hangs on the rounding of its residual, which a block
    and a round run alone compute differently.
    On any other readout a block runs for twice the current run of
    classified rounds, at most BLOCK: the draws a block takes ahead past
    the end of its run are wasted. A block shorter than MIN_BLOCK costs
    more than its rounds run alone and is not run. So a run starts with
    MIN_BLOCK / 2 rounds alone, and while every round is classified its
    blocks grow from there (8, 24, 72, 216 rounds, then BLOCK). An
    unclassified round ends the run, so the next block again waits for
    MIN_BLOCK / 2 classified rounds; when classified runs stay shorter
    than that, every round runs alone.
    """
    state, fp_set, steps, readout = _start(config, rho0)
    rng = np.random.default_rng(config.seed)
    table = _WeightTable.of(config, readout, rng) if config.classify_mode == "sample" else None
    rounds: list[Round] = []
    streak = 0  # the current run of classified rounds
    while len(rounds) < config.n_rounds:
        settled, weights, resid, symbol = _classify(config, readout, state, rng)
        length = min(BLOCK, config.n_rounds - len(rounds))
        if not readout.classical:
            length = min(length, 2 * streak)
        if table is not None and symbol is not None and (readout.classical or length >= MIN_BLOCK):
            kept = _sample_block(config, readout, table, (settled, weights, resid, symbol), steps,
                                 rng, length)
            streak += len(kept)
            rounds += kept
        else:
            collapse = table is not None and symbol is not None
            post = hermitize(config.kick.apply(readout.states[symbol] if collapse else settled, rng))
            rounds.append(Round(settled_state=settled, symbol=symbol, settle_steps=steps,
                                post_kick_state=post, weights=weights, residual=resid))
            streak = streak + 1 if symbol is not None else 0
        state = rounds[-1].post_kick_state
    return Trajectory(rounds=rounds, fixed_points=fp_set.states)


def exact_process(config: SimulationConfig, rho0) -> QuasiRealization:
    """The symbol process of a sample-mode ``run`` on a classical readout,
    exactly, as a realization over the symbols "0", ..., "k-1".

    There a round measures the POVM {H_l} of ``_Readout`` on the state the
    last kick left, emits l and collapses onto fixed point l. So the
    symbols are a Markov chain, T[j, l] = tr[H_l K(sigma_j)] with K the
    mean kick (X -> I/d for a Haar kick, the kick itself otherwise), whose
    first symbol is drawn from pi_l = tr[H_l rho0]. D_u keeps row u of T
    and tau is all ones, so pi D_u1 ... D_un tau is the probability that a
    run's symbols start u1 ... un. That is the process ``run`` emits, as on
    a classical readout every round is classified. Raises ValueError on
    a readout that is not classical, or on a "nearest"-mode config.
    """
    if config.classify_mode != "sample":
        raise ValueError("exact_process describes sample mode, not nearest")
    state, _, _, readout = _start(config, rho0)
    if not readout.classical:
        raise ValueError("the fixed points are not a classical readout: their weights are not "
                         "a POVM over a simplex that spans the fixed space")
    k, d = readout.states.shape[:2]
    if isinstance(config.kick, HaarUnitaryKick):
        kicked = np.broadcast_to(np.eye(d) / d, (k, d, d))
    else:  # a fixed or depolarizing kick draws nothing
        kicked = np.array([config.kick.apply(fp, None) for fp in readout.states])
    t = np.einsum("lab,jba->jl", readout.h, kicked).real
    alphabet = tuple(str(u) for u in range(k))
    d_maps = {}
    for u, symbol in enumerate(alphabet):
        m = np.zeros((k, k))
        m[u] = t[u]
        d_maps[symbol] = m
    return QuasiRealization(dim=k, alphabet=alphabet, d_maps=d_maps,
                            pi=np.einsum("lab,ba->l", readout.h, state).real, tau=np.ones(k))


# ----------------------------------------------------------------------
# Empirical process estimation
# ----------------------------------------------------------------------

@dataclass
class EmpiricalProcess:
    """Bigram statistics of the emitted symbol sequence.

    symbols lists the observed fixed-point indices; counts[i][j] is the
    number of consecutive classified rounds emitting symbols[i] then
    symbols[j]; transition_estimate is the row-normalized counts and
    stationary_estimate its left fixed vector.
    """

    symbols: list[int]
    counts: np.ndarray
    transition_estimate: np.ndarray
    stationary_estimate: np.ndarray


def _left_fixed_vector(t: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eig(t.T)
    k = int(np.argmin(np.abs(evals - 1.0)))
    v = np.real(evecs[:, k])
    v = np.where(np.abs(v) < 1e-14, 0.0, v)
    if v.sum() < 0:
        v = -v
    v = np.clip(v, 0.0, None)
    s = v.sum()
    return v / s if s > 0 else np.full(len(v), 1.0 / len(v))


def estimate_process(seq: Sequence[int | None]) -> EmpiricalProcess:
    """Count symbol transitions between consecutively classified rounds of
    an emitted symbol sequence (``Trajectory.symbols()``), None marking an
    unclassified round."""
    classified = [s for s in seq if s is not None]
    if len(classified) < 2:
        raise ValueError(
            f"need at least 2 classified rounds to estimate a process, got {len(classified)}"
        )
    symbols = sorted(set(classified))
    index = {s: i for i, s in enumerate(symbols)}
    k = len(symbols)
    counts = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(seq[:-1], seq[1:]):
        if a is not None and b is not None:
            counts[index[a], index[b]] += 1
    transition = np.zeros((k, k), dtype=float)
    for i in range(k):
        row_total = counts[i].sum()
        if row_total > 0:
            transition[i] = counts[i] / row_total
    return EmpiricalProcess(
        symbols=symbols,
        counts=counts,
        transition_estimate=transition,
        stationary_estimate=_left_fixed_vector(transition),
    )


def to_quasi_realization(process: EmpiricalProcess) -> QuasiRealization:
    """Package the estimate as a positive realization: the transition
    matrix column-split by emitted symbol, stationary pi, all-ones tau."""
    missing = [process.symbols[i] for i in range(len(process.symbols))
               if process.counts[i].sum() == 0]
    if missing:
        raise ValueError(
            f"no outgoing transitions observed for symbols {missing}; "
            "cannot normalize those rows"
        )
    k = len(process.symbols)
    alphabet = tuple(str(s) for s in process.symbols)
    d_maps = {}
    for j, u in enumerate(alphabet):
        m = np.zeros((k, k))
        m[:, j] = process.transition_estimate[:, j]
        d_maps[u] = m
    return QuasiRealization(
        dim=k,
        alphabet=alphabet,
        d_maps=d_maps,
        pi=process.stationary_estimate.copy(),
        tau=np.ones(k),
    )


# ----------------------------------------------------------------------
# JSON wire formats: config object, one JSONL record per round, process
# ----------------------------------------------------------------------

_CONFIG_KEYS = {"channel", "kick", "n_iter", "n_rounds", "classify_tol", "classify", "seed"}
_KICK_KEYS = {"policy", "strength", "choi"}
_ROUND_KEYS = {"round", "symbol", "settle_steps"}


def config_from_json(obj: dict) -> SimulationConfig:
    if not isinstance(obj, dict):
        raise ValueError("simulation config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"channel", "kick", "n_iter", "n_rounds"} - set(obj)
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")
    kick_obj = obj["kick"]
    if not isinstance(kick_obj, dict) or "policy" not in kick_obj:
        raise ValueError("kick must be an object with a 'policy' key")
    unknown = set(kick_obj) - _KICK_KEYS
    if unknown:
        raise ValueError(f"unknown kick keys: {sorted(unknown)}")
    n_iter, n_rounds = linops.json_int(obj, "n_iter"), linops.json_int(obj, "n_rounds")
    seed = linops.json_int(obj, "seed") if "seed" in obj else 0
    classify_tol = linops.json_float(obj, "classify_tol", CLASSIFY_TOL)
    strength = linops.json_float(kick_obj, "strength", 1.0)
    policy = kick_obj["policy"]
    kick: KickPolicy
    if policy == "haar":
        kick = HaarUnitaryKick()
    elif policy == "depolarizing":
        kick = DepolarizingKick(strength=strength)
    elif policy == "fixed":
        if "choi" not in kick_obj:
            raise ValueError("fixed kick needs a 'choi' matrix")
        kick = FixedKick(choi=chan.choi_from_json(kick_obj["choi"]))
    else:
        raise ValueError(f"unknown kick policy {policy!r} (haar | depolarizing | fixed)")
    return SimulationConfig(
        channel=chan.choi_from_json(obj["channel"]),
        kick=kick,
        n_iter=n_iter,
        n_rounds=n_rounds,
        classify_tol=classify_tol,
        classify_mode=str(obj.get("classify", "nearest")),
        seed=seed,
    )


def trajectory_to_json(traj: Trajectory) -> list[dict]:
    """One record per round, in order; the first also holds the fixed points."""
    records = [
        {
            "round": i,
            "symbol": r.symbol,
            "settle_steps": r.settle_steps,
            "weights": r.weights.tolist(),
            "residual": r.residual,
        }
        for i, r in enumerate(traj.rounds)
    ]
    if records:
        records[0]["fixed_points"] = [linops.matrix_to_json(fp) for fp in traj.fixed_points]
    return records


def symbols_from_json(records: Sequence) -> list[int | None]:
    """The symbol sequence of a trajectory's records. Record i must have
    round i, settle_steps >= 1 and a symbol >= 0 or null; every other key
    is ignored."""
    symbols: list[int | None] = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not _ROUND_KEYS <= set(rec):
            raise ValueError(f"trajectory line {i} needs {sorted(_ROUND_KEYS)}")
        if linops.json_int(rec, "round") != i:
            raise ValueError(f"trajectory line {i} holds round {rec['round']}: "
                             "rounds must run 0, 1, 2, ... without gaps")
        linops.json_int(rec, "settle_steps", minimum=1)
        symbols.append(linops.json_int(rec, "symbol", minimum=0, nullable=True))
    return symbols


def process_to_json(p: EmpiricalProcess) -> dict:
    return {
        "symbols": [int(s) for s in p.symbols],
        "counts": [[int(x) for x in row] for row in p.counts],
        "transition": [[float(x) for x in row] for row in p.transition_estimate],
        "stationary": [float(x) for x in p.stationary_estimate],
    }
