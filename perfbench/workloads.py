"""The benchmark's workloads: seeded inputs, operations and output oracles.

A workload is a sequence of cycles, each a fixed mix of operation
families, so every run sees the same mix whatever its seed. Cycle ``i``
draws from ``numpy.random.default_rng([seed, i])``: new inputs for
``simulate`` and ``inspect``, a new order of a fixed input bank for
``design``. An operation is what the timer brackets: one in-process CLI
command in ``design`` and ``inspect``; one conesim round-trip in
``simulate`` (``conesim run``, ``conesim estimate``, then the
quasi-realization checks of the estimate). Each output is checked
against a known answer: one computed here with plain numpy, or a
property the input guarantees (a CPTP channel, a positive realization).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# ----------------------------------------------------------------------
# Operations and the in-process CLI
# ----------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    family: str
    run: Callable[[], object]          # the timed part
    check: Callable[[object], str | None]  # None when the output is right, else why not


class Context:
    """Per-process state: the imported package, the seed and a work directory."""

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck
        self.seed = seed
        self.workdir = workdir
        self.cache: dict = {}

    def rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, cycle])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def cli(self, *argv: str) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ck.cli.main(list(argv))
        return CliResult(code, out.getvalue(), err.getvalue())


def _cli_failure(results) -> str | None:
    for r in results:
        if r.code != 0:
            reason = ""
            try:
                reason = json.loads(r.err.strip().splitlines()[-1]).get("reason", "")
            except (ValueError, IndexError, AttributeError):
                pass
            return f"reported: exit {r.code} {reason}".strip()
    return None


# ----------------------------------------------------------------------
# Input generation and reference numerics (numpy only)
# ----------------------------------------------------------------------


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def matrix_of(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    return (re + 1j * im).reshape(obj["rows"], obj["cols"])


def random_density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def choi_apply(c: np.ndarray, d: int, rho: np.ndarray) -> np.ndarray:
    """Phi(rho)_ab = sum_jk C[(a,j),(b,k)] rho_jk (output-major Choi)."""
    return np.einsum("ajbk,jk->ab", c.reshape(d, d, d, d), rho)


def trace_dist(a: np.ndarray, b: np.ndarray) -> float:
    h = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((h + h.conj().T) / 2)).sum())


PSD_TOL = 1e-9   # conekit's own CP and TP tolerances
TP_TOL = 1e-9


def channel_failure(c: np.ndarray, d: int, fixed, fp_tol: float) -> str | None:
    """CP, TP and Phi(sigma) = sigma for every sigma in ``fixed``."""
    lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2).min())
    if lo < -PSD_TOL:
        return f"not CP (min eig {lo:.2e})"
    tp = float(np.abs(np.einsum("ajak->jk", c.reshape(d, d, d, d)) - np.eye(d)).max())
    if tp > TP_TOL:
        return f"not TP (residual {tp:.2e})"
    for i, s in enumerate(fixed):
        r = trace_dist(choi_apply(c, d, s), s)
        if r > fp_tol:
            return f"state {i} not fixed (residual {r:.2e})"
    return None


# ----------------------------------------------------------------------
# design: engineer sdp and demo bell
# ----------------------------------------------------------------------

DESIGN_FP_TOL = 1e-7
DESIGN_DIMS = (2, 3, 4)
DESIGN_BANK_SEED = 2307
BELL_GENERIC = ("--coeffs", "0.8,0.6,-0.6,0.8,0.6,0.8,-0.8,0.6",
                "--s", "0.3,0.4,0.3", "--r", "0.2,0.5,0.3")


def _bell_states(coeffs, s, r):
    """The two Bell-basis mixtures ``demo bell`` engineers, built independently."""
    h = 1 / math.sqrt(2)
    v = [np.array(x, dtype=complex) * h
         for x in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
    a0, b0, d0, e0, a1, b1, d1, e1 = coeffs

    def proj(k):
        return np.outer(k, k.conj())

    sigma0 = s[0] * proj(v[0]) + s[1] * proj(a0 * v[1] + b0 * v[2]) + s[2] * proj(d0 * v[1] + e0 * v[2])
    sigma1 = r[0] * proj(v[1]) + r[1] * proj(a1 * v[1] + b1 * v[2]) + r[2] * proj(d1 * v[1] + e1 * v[2])
    return [sigma0, sigma1]


BELL_DEFAULT_STATES = _bell_states([1, 0, 0, 1, 1, 0, 0, 1], [1 / 3] * 3, [1 / 3] * 3)
BELL_GENERIC_STATES = _bell_states([0.8, 0.6, -0.6, 0.8, 0.6, 0.8, -0.8, 0.6],
                                   [0.3, 0.4, 0.3], [0.2, 0.5, 0.3])


def _engineered_failure(rep: dict, cp: bool, tp: bool, c: np.ndarray, d: int, states) -> str | None:
    """A channel the program calls CPTP with small residuals must be one."""
    if not (cp and tp):
        return f"reported: channel not {'CP' if not cp else 'TP'}"
    if max(rep["fixed_point_residuals"]) > DESIGN_FP_TOL:
        return "reported: fixed-point residual above 1e-7"
    wrong = channel_failure(c, d, states, DESIGN_FP_TOL)
    return f"wrong: {wrong}" if wrong else None


def _check_engineered(states, d: int):
    def check(res) -> str | None:
        fail = _cli_failure([res])
        if fail:
            return fail
        rep = json.loads(res.out)
        return _engineered_failure(rep, rep["cp"], rep["tp"], matrix_of(rep["channel"]), d, states)
    return check


def _check_bell(states):
    def check(res) -> str | None:
        fail = _cli_failure([res])
        if fail:
            return fail
        rep = json.loads(res.out)
        flags = rep["sdp"] if rep["path"] == "sdp" else rep["conditions"]
        return _engineered_failure(rep, flags["cp"], flags["tp"], matrix_of(rep["channel"]), 4, states)
    return check


def _design_bank() -> list[tuple[int, int, int, list[np.ndarray]]]:
    """Fixed state sets, (d, k, rank, states), drawn once from DESIGN_BANK_SEED.

    Every family is d in {2, 3, 4}, k in {1, 2} states, rank d or ceil(d/2).
    Instances per family: 3 at d = 2, 4 for one state at d = 3, 2 for two
    states at d = 3 and one state at d = 4, 1 for two states at d = 4
    (3-6 s each). A cycle then holds 12 solves under 15 ms, 8 one-state
    d = 3 solves near 20 ms and 12 longer operations, so the median
    latency falls in the middle of one tight cluster.
    """
    rng = np.random.default_rng(DESIGN_BANK_SEED)
    bank = []
    for d in DESIGN_DIMS:
        for k in (1, 2):
            for rank in (d, -(-d // 2)):
                size = {2: 3, 3: 4 if k == 1 else 2, 4: 2 if k == 1 else 1}[d]
                bank.extend((d, k, rank, [random_density(rng, d, rank) for _ in range(k)])
                            for _ in range(size))
    return bank


def design_setup(ctx: Context) -> None:
    """Write the bank once; every cycle runs it again in a seeded order.

    The inputs do not vary with the seed on purpose. The solver's failing
    paths (numerical-limit at d = 3, 4 with two states) take 3-6 s, and
    any change of input, even a change of basis that leaves the outcome
    and the iteration count of the successful solves alone, moves that
    time by about 20% through rounding. With two such instances per
    cycle the run total would swing by more than the bounds allow.
    """
    ops = []
    for i, (d, k, rank, states) in enumerate(_design_bank()):
        paths = [ctx.write(f"design-{i}-{j}.json", matrix_json(s)) for j, s in enumerate(states)]
        for path in paths:
            with open(path) as fh:
                ctx.ck.linops.matrix_from_json(json.load(fh))
        argv = ["engineer", "sdp"] + [a for p in paths for a in ("--sigma", p)]
        ops.append(Op(f"sdp-d{d}-k{k}-r{rank}", lambda argv=argv: ctx.cli(*argv),
                      _check_engineered(states, d)))
    ops.append(Op("bell-default", lambda: ctx.cli("demo", "bell"), _check_bell(BELL_DEFAULT_STATES)))
    ops.append(Op("bell-generic", lambda: ctx.cli("demo", "bell", *BELL_GENERIC),
                  _check_bell(BELL_GENERIC_STATES)))
    ctx.cache["design"] = ops


def design_cycle(ctx: Context, cycle: int) -> list[Op]:
    ops = ctx.cache["design"]
    return [ops[i] for i in ctx.rng(cycle).permutation(len(ops))]


# ----------------------------------------------------------------------
# simulate: conesim run -> conesim estimate -> quasireal checks
# ----------------------------------------------------------------------

SIM_DIMS = (2, 4, 8)
SIM_ROUNDS = 100
SIM_MAX_STEPS = 2000
CHI2_ALPHA = 1e-6


def _chi2_upper(dof: int, alpha: float) -> float:
    from scipy.stats import chi2
    return float(chi2.isf(alpha, dof))


def iid_uniform_failure(seq: list[int], k: int) -> str | None:
    """Chi-square tests of an emitted symbol sequence against the exact
    process: i.i.d. uniform over the k fixed points.

    Two tests, each at asymptotic level 1e-6: symbol counts against n/k
    (k-1 degrees of freedom), and each row of the bigram table against a
    uniform row (Anderson-Goodman, k(k-1) degrees of freedom). At the
    sizes used here (100 rounds; k = 2, 3, 7) ``chi2_false_failures.py``
    drew 10^6 i.i.d. uniform sequences per k and this check rejected 0, 1
    and 4 of them: a false-failure rate of about 4e-6 per operation at
    most. A given seed gets the same verdict on every run.
    """
    seq = np.asarray(seq)
    n = len(seq)
    counts = np.bincount(seq, minlength=k).astype(float)
    if counts.size != k:
        return f"symbol outside 0..{k - 1}"
    stat = float(((counts - n / k) ** 2 / (n / k)).sum())
    if stat > _chi2_upper(k - 1, CHI2_ALPHA):
        return f"symbol counts {counts.astype(int).tolist()} not uniform (chi2 {stat:.1f})"
    pairs = np.zeros((k, k))
    np.add.at(pairs, (seq[:-1], seq[1:]), 1)
    rows = pairs.sum(axis=1, keepdims=True)
    expected = np.where(rows > 0, rows / k, 1.0)
    stat = float(((pairs - rows / k) ** 2 / expected).sum())
    if stat > _chi2_upper(k * (k - 1), CHI2_ALPHA):
        return f"bigram rows not uniform (chi2 {stat:.1f})"
    return None


def _sim_channel(d: int) -> tuple[np.ndarray, int]:
    """0.5 id + 0.5 Phi, Phi the separable channel fixing basis projectors
    (both at d = 2, the first d-1 otherwise) with decay state I/d. Mixing
    with the identity keeps the fixed points and slows settling to tens
    of steps."""
    k = 2 if d == 2 else d - 1
    eye = np.eye(d)
    phi = np.zeros((d * d, d * d), dtype=complex)
    rest = eye.copy()
    for i in range(k):
        p = np.outer(eye[i], eye[i])
        phi += np.kron(p, p)
        rest -= p
    phi += np.kron(eye / d, rest)
    vec_id = eye.reshape(-1)
    return 0.5 * np.outer(vec_id, vec_id) + 0.5 * phi, k


def simulate_setup(ctx: Context) -> None:
    configs = {}
    for d in SIM_DIMS:
        c, k = _sim_channel(d)
        cfg = {"channel": dict(matrix_json(c), d_in=d, d_out=d), "kick": {"policy": "haar"},
               "n_iter": SIM_MAX_STEPS, "n_rounds": SIM_ROUNDS, "classify": "sample", "seed": 0}
        path = ctx.write(f"sim-config-d{d}.json", cfg)
        with open(path) as fh:
            ctx.ck.conesim.config_from_json(json.load(fh))
        configs[d] = (path, k)
    ctx.cache["sim"] = configs


def _sim_run(ctx: Context, cfg: str, seed: int, traj: str):
    ck = ctx.ck
    run = ctx.cli("conesim", "run", "--config", cfg, "--seed", str(seed), "--out", traj)
    est = ctx.cli("conesim", "estimate", traj)
    if run.code or est.code:
        return run, est, None
    p = json.loads(est.out)
    proc = ck.conesim.EmpiricalProcess(
        symbols=p["symbols"], counts=np.asarray(p["counts"]),
        transition_estimate=np.asarray(p["transition"]),
        stationary_estimate=np.asarray(p["stationary"]))
    q = ck.conesim.to_quasi_realization(proc)
    cone = ck.quasireal.PolyhedralCone(np.eye(q.dim))
    checks = (ck.quasireal.is_positive_realization(q),
              ck.quasireal.check_dharmadhikari(q, cone),
              ck.quasireal.word_distribution(q, 2),
              float(q.pi @ q.tau))
    return run, est, checks


def _check_sim(k: int, traj: str):
    def check(res) -> str | None:
        run, est, checks = res
        fail = _cli_failure([run, est])
        if fail:
            return fail
        summary = json.loads(run.out)
        if summary["n_fixed_points"] != k:
            return f"{summary['n_fixed_points']} fixed points, expected {k}"
        with open(traj) as fh:
            seq = [json.loads(line)["symbol"] for line in fh if line.strip()]
        if len(seq) != SIM_ROUNDS or any(s is None for s in seq):
            return "not every round was classified"
        bad = iid_uniform_failure(seq, k)
        if bad:
            return bad
        p = json.loads(est.out)
        sym = p["symbols"]
        pairs = np.zeros((k, k), dtype=int)
        np.add.at(pairs, (np.asarray(seq[:-1]), np.asarray(seq[1:])), 1)
        if not np.array_equal(pairs[np.ix_(sym, sym)], np.asarray(p["counts"])):
            return "estimate counts differ from the trajectory's bigrams"
        positive, cone, words, pi_tau = checks
        if not positive.all_ok:
            return "estimate is not a positive realization"
        if not cone.all_ok:
            return "simplex cone conditions fail"
        if abs(sum(words.values()) - pi_tau) > 1e-9:
            return "length-2 word probabilities do not sum to pi.tau"
        return None
    return check


def simulate_cycle(ctx: Context, cycle: int) -> list[Op]:
    rng = ctx.rng(cycle)
    ops = []
    for d in SIM_DIMS:
        cfg, k = ctx.cache["sim"][d]
        seed = int(rng.integers(2 ** 31))
        traj = ctx.path(f"sim-traj-d{d}.jsonl")
        ops.append(Op(f"conesim-d{d}", lambda cfg=cfg, seed=seed, traj=traj: _sim_run(ctx, cfg, seed, traj),
                      _check_sim(k, traj)))
    return ops


# ----------------------------------------------------------------------
# inspect: many distinct channels and realizations, each touched once
# ----------------------------------------------------------------------

INSPECT_DIMS = tuple(range(2, 9))
INSPECT_FP_TOL = 1e-7
QR_SHAPES = ((2, 2), (3, 2), (4, 3), (5, 3))  # (dimension, alphabet size)


def _check_channel_check(res) -> str | None:
    fail = _cli_failure([res])
    if fail:
        return fail
    rep = json.loads(res.out)
    return None if rep["cp"] and rep["tp"] else "known CPTP channel reported as not CPTP"


def _check_fixed_points(c: np.ndarray, d: int, expected: int):
    def check(res) -> str | None:
        fail = _cli_failure([res])
        if fail:
            return fail
        states = [matrix_of(s) for s in json.loads(res.out)["states"]]
        if len(states) != expected:
            return f"{len(states)} fixed states, expected {expected}"
        for s in states:
            if abs(np.trace(s).real - 1) > 1e-7 or np.linalg.eigvalsh((s + s.conj().T) / 2).min() < -1e-7:
                return "returned fixed point is not a density matrix"
        return channel_failure(c, d, states, INSPECT_FP_TOL)
    return check


def _realization(rng, n: int, a: int):
    """A positive realization (row-stochastic split over a symbols,
    stationary pi, tau = 1) and a well-conditioned similarity S."""
    t = rng.dirichlet(np.ones(n), size=n)
    split = rng.dirichlet(np.ones(a), size=(n, n))
    maps = [t * split[:, :, u] for u in range(a)]
    w, v = np.linalg.eig(t.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1))])
    pi = pi / pi.sum()
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, n))) @ q2
    return maps, pi, s


def _check_prob(expected: float):
    def check(res) -> str | None:
        fail = _cli_failure([res])
        if fail:
            return fail
        got = json.loads(res.out)["probability"]
        if abs(got - expected) > 1e-12 + 1e-8 * abs(expected):
            return f"probability {got!r}, expected {expected!r}"
        return None
    return check


def _check_cone(res) -> str | None:
    fail = _cli_failure([res])
    if fail:
        return fail
    return None if json.loads(res.out)["all_conditions"] else "transformed simplex cone rejected"


def _inspect_inputs(ctx: Context, cycle: int) -> list[Op]:
    ck = ctx.ck
    rng = ctx.rng(cycle)
    ops = []
    for d in INSPECT_DIMS:
        k = int(rng.integers(1, d))
        basis = haar(rng, d)
        projs = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(k)]
        spec = ck.engineer.SeparableMultiSpec.from_states(projs)
        u = haar(rng, d)
        vec_u = u.reshape(-1)
        channels = (
            ("random", ck.channel.random_cptp_choi(d, rng).matrix, 1),
            ("separable", ck.engineer.build_separable_multi(spec).matrix, k),
            ("unitary", np.outer(vec_u, vec_u.conj()), d),
        )
        for kind, c, expected in channels:
            path = ctx.write(f"inspect-{cycle}-{kind}-d{d}.json", dict(matrix_json(c), d_in=d, d_out=d))
            ops.append(Op(f"check-{kind}", lambda p=path: ctx.cli("channel", "check", "--choi", p),
                          _check_channel_check))
            ops.append(Op(f"fixed-points-{kind}",
                          lambda p=path: ctx.cli("channel", "fixed-points", "--choi", p),
                          _check_fixed_points(c, d, expected)))
    for n, a in QR_SHAPES:
        maps, pi, s = _realization(rng, n, a)
        s_inv = np.linalg.inv(s)
        alphabet = [str(x) for x in range(a)]
        qr = {"dim": n, "alphabet": alphabet,
              "D": {u: (s_inv @ m @ s).tolist() for u, m in zip(alphabet, maps)},
              "pi": (pi @ s).tolist(), "tau": (s_inv @ np.ones(n)).tolist()}
        qpath = ctx.write(f"inspect-{cycle}-qr{n}.json", qr)
        cpath = ctx.write(f"inspect-{cycle}-cone{n}.json", {"generators": s_inv.T.tolist()})
        word = [int(x) for x in rng.integers(a, size=int(rng.integers(1, 7)))]
        vec = pi.copy()
        for x in word:
            vec = vec @ maps[x]
        expected = float(vec.sum())
        ops.append(Op("cone-check", lambda q=qpath, c=cpath: ctx.cli(
            "quasireal", "cone-check", "--realization", q, "--cone", c), _check_cone))
        ops.append(Op("prob", lambda q=qpath, w=",".join(map(str, word)): ctx.cli(
            "quasireal", "prob", "--realization", q, "--word", w), _check_prob(expected)))
    return ops


def inspect_setup(ctx: Context) -> None:
    ctx.cache["inspect0"] = _inspect_inputs(ctx, 0)
    for name in sorted(os.listdir(ctx.workdir)):
        with open(ctx.path(name)) as fh:
            obj = json.load(fh)
        if "d_in" in obj:
            ctx.ck.channel.choi_from_json(obj)
        elif "alphabet" in obj:
            ctx.ck.quasireal.quasireal_from_json(obj)
        else:
            ctx.ck.quasireal.cone_from_json(obj)


def inspect_cycle(ctx: Context, cycle: int) -> list[Op]:
    if cycle == 0 and "inspect0" in ctx.cache:
        return ctx.cache.pop("inspect0")
    for name in os.listdir(ctx.workdir):
        os.remove(ctx.path(name))
    return _inspect_inputs(ctx, cycle)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context], None]
    cycle: Callable[[Context, int], list[Op]]
    cycle_s: float      # one cycle's time on a quiet machine at the parent commit (2-core x86, 1 BLAS thread)
    trace_cycles: int   # fixed work of a traced run, so its counts repeat exactly


WORKLOADS = {
    "design": Workload(design_setup, design_cycle, cycle_s=8.5, trace_cycles=1),
    "simulate": Workload(simulate_setup, simulate_cycle, cycle_s=1.2, trace_cycles=4),
    "inspect": Workload(inspect_setup, inspect_cycle, cycle_s=0.35, trace_cycles=8),
}
