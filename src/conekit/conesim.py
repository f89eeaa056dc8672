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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.optimize import nnls

from . import channel as chan
from . import linops
from .channel import ChoiMatrix
from .linops import hermitize, trace_distance
from .quasireal import QuasiRealization

CLASSIFY_TOL = 1e-3
SETTLE_TOL = 1e-10
CLASSIFY_MODES = ("nearest", "sample")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with
    the phases of R's diagonal folded back in."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
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


@dataclass
class Trajectory:
    rounds: list[Round]
    fixed_points: list[np.ndarray] = field(default_factory=list)

    def symbols(self) -> list[int | None]:
        return [r.symbol for r in self.rounds]


def _fixed_point_weights(settled: np.ndarray, fps: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Nonnegative barycentric weights of a state over the fixed points,
    via NNLS on the stacked real and imaginary parts."""
    cols = [np.concatenate([fp.real.reshape(-1), fp.imag.reshape(-1)]) for fp in fps]
    target = np.concatenate([settled.real.reshape(-1), settled.imag.reshape(-1)])
    coeffs, residual = nnls(np.column_stack(cols), target)
    return coeffs, float(residual)


def _settle_steps(fps: chan.FixedPointSet, n_iter: int) -> int:
    """Predicted settle count: the smallest n >= 1 with decay_modulus^n <=
    SETTLE_TOL, infinite when a peripheral eigenvalue other than 1 keeps the
    iterates from settling. Raises ValueError when it exceeds n_iter."""
    stuck = [z for z in fps.peripheral_spectrum if abs(z - 1.0) > chan.FP_TOL]
    m = fps.decay_modulus
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
    settle_steps.

    In "nearest" mode classification picks the nearest canonical fixed
    point by trace distance (ties to the lowest index), records None when
    even the nearest one is farther than classify_tol, and the kick acts
    on the settled state. In "sample" mode the symbol is drawn from the
    settled state's barycentric weights over the fixed points (None when
    the decomposition residual exceeds classify_tol), the state collapses
    onto the drawn fixed point, and the kick acts on that. Unclassified
    rounds are recorded, never fatal.
    """
    state = linops.check_density(rho0, tol=1e-7)
    if state.shape != (config.channel.d_in,) * 2:
        raise ValueError("initial state dimension does not match the channel")
    fp_set = chan.fixed_points(config.channel)
    steps = _settle_steps(fp_set, config.n_iter)
    fps, p1 = fp_set.states, fp_set.projector
    rng = np.random.default_rng(config.seed)
    rounds: list[Round] = []
    for _ in range(config.n_rounds):
        settled = hermitize((p1 @ state.reshape(-1)).reshape(state.shape))
        if config.classify_mode == "sample":
            weights, resid = _fixed_point_weights(settled, fps)
            total = weights.sum()
            if resid <= config.classify_tol and total > 0:
                symbol = int(rng.choice(len(fps), p=weights / total))
            else:
                symbol = None
        else:
            dists = [trace_distance(settled, fp) for fp in fps]
            best = int(np.argmin(dists))
            symbol = best if dists[best] <= config.classify_tol else None
        kick_input = fps[symbol] if (config.classify_mode == "sample" and symbol is not None) else settled
        post = hermitize(config.kick.apply(kick_input, rng))
        rounds.append(Round(settled_state=settled, symbol=symbol,
                            settle_steps=steps, post_kick_state=post))
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


def estimate_process(trajectory: Trajectory) -> EmpiricalProcess:
    """Count symbol transitions between consecutively classified rounds."""
    seq = trajectory.symbols()
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
    try:
        n_iter, n_rounds = int(obj["n_iter"]), int(obj["n_rounds"])
        classify_tol = float(obj.get("classify_tol", CLASSIFY_TOL))
        seed = int(obj.get("seed", 0))
        strength = float(kick_obj.get("strength", 1.0))
    except TypeError as exc:
        raise ValueError(f"config field has the wrong type: {exc}") from exc
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


def round_to_json(r: Round, index: int) -> dict:
    return {
        "round": index,
        "settled_state": linops.matrix_to_json(r.settled_state),
        "symbol": r.symbol,
        "settle_steps": r.settle_steps,
        "post_kick_state": linops.matrix_to_json(r.post_kick_state),
    }


def round_from_json(obj: dict) -> Round:
    if not isinstance(obj, dict) or not {"settled_state", "settle_steps", "post_kick_state"} <= set(obj):
        raise ValueError("trajectory round needs settled_state, settle_steps and post_kick_state")
    try:
        symbol = None if obj.get("symbol") is None else int(obj["symbol"])
        settle_steps = int(obj["settle_steps"])
    except TypeError as exc:
        raise ValueError(f"trajectory round field has the wrong type: {exc}") from exc
    return Round(
        settled_state=linops.matrix_from_json(obj["settled_state"]),
        symbol=symbol,
        settle_steps=settle_steps,
        post_kick_state=linops.matrix_from_json(obj["post_kick_state"]),
    )


def process_to_json(p: EmpiricalProcess) -> dict:
    return {
        "symbols": [int(s) for s in p.symbols],
        "counts": [[int(x) for x in row] for row in p.counts],
        "transition": [[float(x) for x in row] for row in p.transition_estimate],
        "stationary": [float(x) for x in p.stationary_estimate],
    }
