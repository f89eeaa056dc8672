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
(nonnegative least squares over the fixed-point set), draws the symbol
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
round draws depends on its state, so the draws of a run cannot be
batched ahead of it without changing the trajectory.

Both modes resolve every settled state into its barycentric weights over
the fixed points (one NNLS solve, which draws nothing from the
generator) and keep them, with the decomposition residual, on the Round.
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
        if self.classify_tol <= 0:
            raise ValueError("classify_tol must be positive")
        if self.classify_mode not in CLASSIFY_MODES:
            raise ValueError(f"classify_mode must be one of {CLASSIFY_MODES}")


@dataclass(frozen=True)
class Round:
    settled_state: np.ndarray
    symbol: int | None          # index into the canonical fixed points, None if unclassified
    settle_steps: int
    post_kick_state: np.ndarray
    weights: np.ndarray         # settled state's NNLS weights over the fixed points
    residual: float             # 2-norm residual of that decomposition


@dataclass
class Trajectory:
    rounds: list[Round]
    fixed_points: list[np.ndarray] = field(default_factory=list)

    def symbols(self) -> list[int | None]:
        return [r.symbol for r in self.rounds]


def _stack_re_im(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)])


def _fixed_point_weights(settled: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative barycentric weights of a state over the fixed points,
    via NNLS on the stacked real and imaginary parts; column j of
    ``columns`` is fixed point j stacked the same way."""
    coeffs, residual = nnls(columns, _stack_re_im(settled))
    return coeffs, float(residual)


def _draw_symbol(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(weights), p=weights / total)``, by the inverse-CDF
    step that choice itself runs, without its validation of p: one
    uniform drawn, the same index returned."""
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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


def run(config: SimulationConfig, rho0) -> Trajectory:
    """Settle / classify / kick for n_rounds, deterministically under the seed.

    Each round settles the state rho to P1 rho (``FixedPointSet.projector``),
    the limit of Phi^n(rho). n_iter is the settle budget, checked once by
    ``_settle_steps``; each Round records its predicted count as
    settle_steps. Every round, in either mode, also records the settled
    state's barycentric weights over the fixed points and the residual of
    that decomposition.

    In "nearest" mode classification picks the nearest canonical fixed
    point by trace distance (ties within TIE_TOL to the lowest index),
    records None when even the nearest one is farther than classify_tol,
    and the kick acts on the settled state. In "sample" mode the symbol is
    drawn from the settled state's barycentric weights over the fixed
    points (None when the decomposition residual exceeds classify_tol),
    the state collapses onto the drawn fixed point, and the kick acts on
    that. Unclassified rounds are recorded, never fatal.
    """
    state = linops.check_density(rho0, tol=1e-7)
    if state.shape != (config.channel.d_in,) * 2:
        raise ValueError("initial state dimension does not match the channel")
    fp_set = chan.fixed_points(config.channel)
    steps = _settle_steps(fp_set.spectrum, config.n_iter)
    fps, p1 = fp_set.states, fp_set.projector
    columns = np.column_stack([_stack_re_im(fp) for fp in fps])
    rng = np.random.default_rng(config.seed)
    rounds: list[Round] = []
    for _ in range(config.n_rounds):
        settled = hermitize((p1 @ state.reshape(-1)).reshape(state.shape))
        weights, resid = _fixed_point_weights(settled, columns)
        if config.classify_mode == "sample":
            total = weights.sum()
            if resid <= config.classify_tol and total > 0:
                symbol = _draw_symbol(weights, total, rng)
            else:
                symbol = None
        else:
            dists = np.array([trace_distance(settled, fp) for fp in fps])
            best = int(np.flatnonzero(dists <= dists.min() + TIE_TOL)[0])
            symbol = best if dists[best] <= config.classify_tol else None
        kick_input = fps[symbol] if (config.classify_mode == "sample" and symbol is not None) else settled
        post = hermitize(config.kick.apply(kick_input, rng))
        rounds.append(Round(settled_state=settled, symbol=symbol, settle_steps=steps,
                            post_kick_state=post, weights=weights, residual=resid))
        state = post
    return Trajectory(rounds=rounds, fixed_points=fps)


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
