import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg.lapack import zgeqrf, zungqr
from scipy.optimize import nnls
from scipy.stats import chi2

from conekit import channel as chan
from conekit import cli, conesim, engineer, linops, quasireal
from conekit.channel import ChoiMatrix
from conekit.conesim import (
    DepolarizingKick,
    FixedKick,
    HaarUnitaryKick,
    SimulationConfig,
    estimate_process,
    haar_unitary,
    run,
    to_quasi_realization,
)
from conekit.linops import kron, trace_distance

from conftest import basis_proj, block_channel, mixed_sector_channel, random_density
from test_conesim_golden import basis_channel


def qutrit_channel() -> ChoiMatrix:
    """The qutrit dephasing channel: the separable core of |0><0| and |1><1|,
    completed by B = |2><2| (w = 0, so B is a third fixed point)."""
    spec = engineer.SeparableMultiSpec.from_states(
        [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
    )
    return spec.channel


def haar_unitary_by_lapack(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Mezzadri's construction through scipy's zgeqrf / zungqr, R's diagonal
    read off the factored matrix: a reference for haar_unitary, which runs
    numpy's QR on a stack."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    qr, tau, _, _ = zgeqrf(z)
    q, _, _ = zungqr(qr, tau)
    d = qr.diagonal()
    return q * (d / np.abs(d))


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_numpy_qr_construction(self, dim):
        # numpy's QR against LAPACK's zgeqrf / zungqr pair, called directly
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            u = haar_unitary(dim, rng)
            assert np.abs(u - haar_unitary_by_lapack(dim, ref_rng)).max() <= 1e-13
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() <= 1e-13
            # both drew the same 2 dim^2 normals
            assert rng.random() == ref_rng.random()

    def test_unitarity_and_determinism(self):
        u1 = haar_unitary(4, np.random.default_rng(3))
        u2 = haar_unitary(4, np.random.default_rng(3))
        assert np.abs(u1 @ u1.conj().T - np.eye(4)).max() < 1e-12
        assert np.array_equal(u1, u2)

    def test_moment_matches_haar(self):
        # E|U_ij|^2 = 1/d for Haar measure
        rng = np.random.default_rng(0)
        acc = np.zeros((3, 3))
        n = 3000
        for _ in range(n):
            acc += np.abs(haar_unitary(3, rng)) ** 2
        assert np.abs(acc / n - 1.0 / 3.0).max() < 0.05


class TestDrawSymbol:
    @pytest.mark.parametrize("weights", [
        [0.2, 0.0, 0.5, 0.3],
        [0.0, 0.0, 1.0],
        [1.0],
        [0.7],
        [3.0, 0.0, 1.5, 0.0, 4.5],
        [1e-300, 2e-300],
    ])
    def test_matches_generator_choice(self, weights):
        w = np.array(weights)
        total = w.sum()
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert conesim._draw_symbol(w, total, rng) == int(ref_rng.choice(len(w), p=w / total))
            # one uniform drawn by each
            assert rng.random() == ref_rng.random()


class TestKickPolicies:
    def test_fixed_kick_requires_cptp(self):
        with pytest.raises(ValueError):
            FixedKick(choi=ChoiMatrix(2, 2, -np.eye(4)))

    def test_depolarizing_strength_bounds(self):
        with pytest.raises(ValueError):
            DepolarizingKick(strength=1.5)

    def test_depolarizing_action(self, rng):
        rho = random_density(rng, 3)
        out = DepolarizingKick(strength=0.4).apply(rho, rng)
        assert np.abs(out - (0.6 * rho + 0.4 * np.eye(3) / 3)).max() < 1e-12

    def test_haar_kick_preserves_spectrum(self, rng):
        rho = random_density(rng, 3)
        out = HaarUnitaryKick().apply(rho, rng)
        assert np.abs(np.sort(np.linalg.eigvalsh(out)) - np.sort(np.linalg.eigvalsh(rho))).max() < 1e-10


class TestRun:
    def test_identity_channel_settles_to_post_kick(self, rng):
        cfg = SimulationConfig(channel=chan.identity_channel(2),
                               kick=HaarUnitaryKick(), n_iter=5, n_rounds=6,
                               classify_tol=1e-3, seed=11)
        traj = run(cfg, random_density(rng, 2))
        for prev, nxt in zip(traj.rounds[:-1], traj.rounds[1:]):
            assert np.abs(nxt.settled_state - prev.post_kick_state).max() < 1e-12
        # random states are generically far from the canonical fixed points
        assert sum(1 for r in traj.rounds if r.symbol is None) >= 4

    def test_identity_kick_freezes_symbols(self):
        cfg = SimulationConfig(channel=qutrit_channel(),
                               kick=FixedKick(choi=chan.identity_channel(3)),
                               n_iter=20, n_rounds=8, classify_tol=0.67, seed=0)
        traj = run(cfg, basis_proj(0, 3))
        symbols = traj.symbols()
        assert symbols[0] is not None
        assert all(s == symbols[0] for s in symbols)

    def test_depolarizing_nearest_keeps_dominant_sector(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(0.5),
                               n_iter=20, n_rounds=100, classify_tol=0.67, seed=0)
        traj = run(cfg, basis_proj(1, 3))
        # mixing toward I/3 keeps the argmax while the distance gap (2^-k
        # after k rounds) exceeds the tie tolerance; later rounds are ties
        # between all three fixed points and go to the lowest index
        for i, r in enumerate(traj.rounds):
            dists = np.sort([trace_distance(r.settled_state, fp) for fp in traj.fixed_points])
            assert (dists[1] - dists[0] > conesim.TIE_TOL) == (i < 30)
            assert r.symbol == (1 if i < 30 else 0)
        assert all(r.settle_steps <= 2 for r in traj.rounds)

    def test_nearest_ties_go_to_lowest_index(self):
        # 0.5 id + 0.5 dephasing with Haar kicks: the settled diagonal drifts
        # to 1/2, where both fixed points are equally near in exact arithmetic
        dephase = sum(kron(basis_proj(i, 2), basis_proj(i, 2)) for i in range(2))
        vec_id = np.eye(2).reshape(-1)
        channel = ChoiMatrix(2, 2, 0.5 * np.outer(vec_id, vec_id) + 0.5 * dephase)
        tied = 0
        for seed in range(8):
            cfg = SimulationConfig(channel=channel, kick=HaarUnitaryKick(), n_iter=50,
                                   n_rounds=100, classify_tol=1.0, seed=seed)
            traj = run(cfg, np.diag([1 / 3, 2 / 3]))
            for r in traj.rounds:
                d0, d1 = (trace_distance(r.settled_state, fp) for fp in traj.fixed_points)
                if abs(d0 - d1) <= conesim.TIE_TOL:
                    tied += 1
                    assert r.symbol == 0
                else:
                    assert r.symbol == int(d1 < d0)
        assert tied > 0

    def test_sample_mode_collapses_and_mixes(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(0.5),
                               n_iter=20, n_rounds=500, classify_tol=0.67,
                               classify_mode="sample", seed=5)
        traj = run(cfg, np.eye(3) / 3)
        symbols = traj.symbols()
        assert all(s is not None for s in symbols)
        assert {0, 1, 2} == set(symbols)
        # collapse: the kick acts on the classified vertex
        for r in traj.rounds:
            expected = 0.5 * traj.fixed_points[r.symbol] + 0.5 * np.eye(3) / 3
            assert np.abs(r.post_kick_state - expected).max() < 1e-12

    def test_states_stay_physical(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=HaarUnitaryKick(),
                               n_iter=20, n_rounds=50, classify_tol=0.67, seed=2)
        traj = run(cfg, basis_proj(0, 3))
        for r in traj.rounds:
            for state in (r.settled_state, r.post_kick_state):
                assert abs(np.trace(state).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh(state).min() > -1e-9

    def test_deterministic_under_seed(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=HaarUnitaryKick(),
                               n_iter=10, n_rounds=25, classify_tol=0.67,
                               classify_mode="sample", seed=123)
        t1 = run(cfg, np.eye(3) / 3)
        t2 = run(cfg, np.eye(3) / 3)
        for a, b in zip(t1.rounds, t2.rounds):
            assert np.array_equal(a.settled_state, b.settled_state)
            assert np.array_equal(a.post_kick_state, b.post_kick_state)
            assert a.symbol == b.symbol and a.settle_steps == b.settle_steps

    def test_sample_mode_on_mixed_sectors(self, rng):
        # two rank-2 mixed sectors at d = 4: both are fixed points and symbols
        sigmas, c = mixed_sector_channel(rng, [[0.7, 0.3], [0.4, 0.6]])
        cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=20, n_rounds=40,
                               classify_mode="sample", seed=3)
        traj = run(cfg, np.eye(4) / 4)
        assert len(traj.fixed_points) == 2
        for sigma in sigmas:
            assert min(trace_distance(fp, sigma) for fp in traj.fixed_points) < 1e-9
        assert set(traj.symbols()) == {0, 1}

    def test_sample_mode_leaves_a_state_off_the_simplex_unclassified(self):
        # the identity channel fixes every state, and fixed_points returns two
        # orthogonal pure ones: their equal superposition is settled but has
        # no nonnegative weights over them (NNLS residual 1/sqrt 2)
        c = chan.identity_channel(2)
        f0, f1 = chan.fixed_points(c).states
        u = np.linalg.eigh(f0)[1][:, 1] + np.linalg.eigh(f1)[1][:, 1]
        rho0 = linops.ket_projector(u / np.linalg.norm(u))
        cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=1, n_rounds=1,
                               classify_mode="sample", seed=7)
        [r] = run(cfg, rho0).rounds
        assert r.residual > cfg.classify_tol
        assert r.symbol is None
        assert np.abs(r.settled_state - rho0).max() < 1e-12
        # no uniform is drawn: the kick's unitary is the generator's first draw,
        # and it acts on the settled state, not on a fixed point
        v = haar_unitary(2, np.random.default_rng(7))
        assert np.abs(r.post_kick_state - v @ r.settled_state @ v.conj().T).max() < 1e-12

    def test_identity_channel_settles_in_one_step(self, rng):
        cfg = SimulationConfig(channel=chan.identity_channel(2), kick=HaarUnitaryKick(),
                               n_iter=1, n_rounds=3, seed=0)
        assert all(r.settle_steps == 1 for r in run(cfg, random_density(rng, 2)).rounds)

    def test_rejects_peripheral_eigenvalue_other_than_one(self):
        # X conjugation swaps |0><0| and |1><1|: eigenvalue -1, iterates never settle
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = SimulationConfig(channel=chan.unitary_channel(x), kick=HaarUnitaryKick(),
                               n_iter=2000, n_rounds=3, seed=0)
        with pytest.raises(ValueError, match="peripheral eigenvalue -1"):
            run(cfg, np.diag([1.0, 0.0]))

    def test_settle_budget(self):
        # 0.5 id + 0.5 dephasing decays coherences as 0.5^n: 0.5^34 <= 1e-10 < 0.5^33
        c = chan.choi_from_map(lambda r: 0.5 * r + 0.5 * np.diag(np.diag(r)), 2, 2)
        rho0 = np.full((2, 2), 0.5)
        cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=10, n_rounds=3, seed=0)
        with pytest.raises(ValueError, match="predicted 34 steps at the decay modulus 0.5, "
                                             "more than n_iter = 10"):
            run(cfg, rho0)
        traj = run(SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=34, n_rounds=3,
                                    seed=0), rho0)
        assert all(r.settle_steps == 34 for r in traj.rounds)
        assert np.abs(traj.rounds[0].settled_state - np.eye(2) / 2).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=HaarUnitaryKick(),
                               n_iter=5, n_rounds=2, classify_tol=0.5, seed=0)
        with pytest.raises(ValueError):
            run(cfg, random_density(rng, 2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(channel=ChoiMatrix(2, 2, -np.eye(4)),
                             kick=HaarUnitaryKick(), n_iter=5, n_rounds=5)
        with pytest.raises(ValueError):
            SimulationConfig(channel=chan.identity_channel(2), kick=HaarUnitaryKick(),
                             n_iter=0, n_rounds=5)
        with pytest.raises(ValueError):
            SimulationConfig(channel=chan.identity_channel(2), kick=HaarUnitaryKick(),
                             n_iter=5, n_rounds=5, classify_mode="argmax")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1,
                                     1e-300, 1e-15, 1e-13])
    def test_classify_tol_must_be_positive_and_finite(self, tol):
        # a nan tolerance would leave every round unclassified, silently; one
        # below linops.RANK_TOL would classify by the rounding of a residual
        # that is 0, so a blocked run and its rounds run alone could differ
        with pytest.raises(ValueError, match="classify_tol must be positive and finite, "
                                             "at least linops.RANK_TOL = 1e-12"):
            SimulationConfig(channel=chan.identity_channel(2), kick=HaarUnitaryKick(),
                             n_iter=5, n_rounds=5, classify_tol=tol)


def design_bank() -> list[list[np.ndarray]]:
    """The 30 state sets of the benchmark's design workload, by its recipe:
    from default_rng(2307), for d in 2, 3, 4, k in 1, 2 states and rank d
    or ceil(d/2), 3 sets at d = 2, 4 (k = 1) or 2 (k = 2) at d = 3, and 2
    (k = 1) or 1 (k = 2) at d = 4, each state g g^dag / tr for a complex
    Gaussian d x rank matrix g."""
    rng = np.random.default_rng(2307)
    bank = []
    for d in (2, 3, 4):
        for k in (1, 2):
            for rank in (d, -(-d // 2)):
                for _ in range({2: 3, 3: 4 if k == 1 else 2, 4: 2 if k == 1 else 1}[d]):
                    states = []
                    for _ in range(k):
                        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                        m = g @ g.conj().T
                        states.append(m / np.trace(m).real)
                    bank.append(states)
    return bank


class TestEngineeredChannelsSettle:
    def test_every_channel_settles_within_2000_steps(self):
        # the engineer sdp channel of every design-bank set and both demo
        # bell channels; the largest predicted settle count is 34
        bells = [cli.run_bell_demo(list(cli.DEFAULT_COEFFS), list(cli.DEFAULT_WEIGHTS),
                                   list(cli.DEFAULT_WEIGHTS)),
                 cli.run_bell_demo([0.8, 0.6, -0.6, 0.8, 0.6, 0.8, -0.8, 0.6],
                                   [0.3, 0.4, 0.3], [0.2, 0.5, 0.3])]
        channels = ([engineer.build_via_sdp(states).c for states in design_bank()]
                    + [chan.choi_from_json(report["channel"]) for report in bells])
        assert len(channels) == 32
        for c in channels:
            cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=2000, n_rounds=3,
                                   classify_mode="sample", seed=0)
            traj = run(cfg, np.eye(c.d_in) / c.d_in)
            assert all(r.settle_steps <= 2000 for r in traj.rounds)


class TestEstimateProcess:
    def test_constant_sequence(self):
        proc = estimate_process([1] * 10)
        assert proc.symbols == [1]
        assert proc.counts.tolist() == [[9]]
        assert proc.transition_estimate.tolist() == [[1.0]]
        assert proc.stationary_estimate.tolist() == [1.0]

    def test_alternating_sequence(self):
        proc = estimate_process([0, 1] * 20)
        assert proc.symbols == [0, 1]
        assert np.abs(proc.transition_estimate - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12
        assert np.allclose(proc.stationary_estimate, [0.5, 0.5])

    def test_unclassified_breaks_pairs(self):
        proc = estimate_process([0, None, 1, 1])
        # only the (1, 1) adjacency is countable
        assert proc.symbols == [0, 1] or proc.symbols == [1]
        assert proc.counts.sum() == 1

    def test_requires_two_classified(self):
        with pytest.raises(ValueError):
            estimate_process([0, None, None])

    def test_rows_exactly_normalized(self):
        proc = estimate_process([0, 0, 1, 0, 1, 1, 0])
        for i, row in enumerate(proc.transition_estimate):
            if proc.counts[i].sum() > 0:
                assert abs(row.sum() - 1.0) < 1e-12


class TestToQuasiRealization:
    def test_alternating_word_probabilities(self):
        proc = estimate_process([0, 1] * 30)
        q = to_quasi_realization(proc)
        assert quasireal.word_probability(q, "01") == pytest.approx(0.5)
        assert quasireal.word_probability(q, "00") == pytest.approx(0.0)
        assert quasireal.is_positive_realization(q, tol=1e-9).all_ok

    def test_constant_word_probabilities(self):
        proc = estimate_process([0] * 12)
        q = to_quasi_realization(proc)
        for k in range(1, 6):
            assert quasireal.word_probability(q, "0" * k) == pytest.approx(1.0)

    def test_missing_rows_rejected(self):
        proc = estimate_process([0, 0, 1])  # symbol 1 has no exit
        with pytest.raises(ValueError) as exc:
            to_quasi_realization(proc)
        assert "1" in str(exc.value)

    def test_bigram_frequencies_match(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(0.5),
                               n_iter=20, n_rounds=3000, classify_tol=0.67,
                               classify_mode="sample", seed=9)
        traj = run(cfg, np.eye(3) / 3)
        proc = estimate_process(traj.symbols())
        q = to_quasi_realization(proc)
        symbols = [s for s in traj.symbols() if s is not None]
        pairs = list(zip(symbols[:-1], symbols[1:]))
        dist = quasireal.word_distribution(q, 2)
        for (a, b), p_model in dist.items():
            p_emp = sum(1 for x, y in pairs if str(x) == a and str(y) == b) / len(pairs)
            assert abs(p_model - p_emp) < 0.02


class TestExactProcess:
    """Sample mode on a classical readout emits an exact Markov chain. On
    the qutrit dephasing channel with a depolarizing kick of strength s the
    kick takes the collapsed vertex |i><i| to (1 - s)|i><i| + s I/3, whose
    weights over the three fixed points give T = (1 - s) I + (s/3) J.
    ``exact_process`` gives T in general; it is checked on the simulate
    benchmark's channels (``basis_channel``: k = 2, 3, 7 fixed basis
    projectors at d = 2, 4, 8), with a Haar kick (T uniform), a
    depolarizing kick of 0.4 and a random CPTP fixed kick (T not uniform)."""

    @pytest.mark.parametrize("seed", [9, 1, 2])
    def test_bigram_rows_match_transition_matrix(self, seed):
        s = 0.5
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(s),
                               n_iter=20, n_rounds=3000, classify_tol=0.67,
                               classify_mode="sample", seed=seed)
        symbols = run(cfg, np.eye(3) / 3).symbols()
        counts = np.zeros((3, 3))
        np.add.at(counts, (symbols[:-1], symbols[1:]), 1)
        t = (1 - s) * np.eye(3) + s / 3
        expected = counts.sum(axis=1, keepdims=True) * t
        stat = float(((counts - expected) ** 2 / expected).sum())
        # Pearson chi-square over the rows, k(k - 1) = 6 degrees of freedom;
        # the threshold is exceeded by a correct simulation with probability 1e-6
        assert stat <= chi2.isf(1e-6, 6)

    @pytest.mark.parametrize("kick", ["haar", "depolarizing", "fixed"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_bigram_rows_match_the_exact_chain(self, d, kick):
        rng = np.random.default_rng(d)
        policy = {"haar": HaarUnitaryKick(), "depolarizing": DepolarizingKick(0.4),
                  "fixed": FixedKick(choi=chan.random_cptp_choi(d, rng))}[kick]
        cfg = SimulationConfig(channel=basis_channel(d), kick=policy, n_iter=2000, n_rounds=5000,
                               classify_mode="sample", seed=3)
        rho0 = random_density(rng, d)
        t = sum(conesim.exact_process(cfg, rho0).d_maps.values())
        k = len(t)
        symbols = run(cfg, rho0).symbols()
        assert None not in symbols
        counts = np.zeros((k, k))
        np.add.at(counts, (symbols[:-1], symbols[1:]), 1)
        expected = counts.sum(axis=1, keepdims=True) * t
        # at least 5 expected in every cell, where the chi-square law holds
        assert expected.min() >= 5
        stat = float(((counts - expected) ** 2 / expected).sum())
        # Pearson chi-square over the rows, k(k - 1) degrees of freedom: a
        # correct simulation exceeds the threshold with probability 1e-6, so
        # the nine cases fail falsely with probability below 1e-5 (each seed
        # gives the same verdict on every run)
        assert stat <= chi2.isf(1e-6, k * (k - 1))

    def test_closed_form_on_the_qutrit_dephasing_channel(self):
        # H_l = |l><l|, so pi is the diagonal of rho0 and T = (1 - s) I + (s/3) J
        s = 0.5
        rho0 = random_density(np.random.default_rng(1), 3)
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(s), n_iter=20,
                               n_rounds=1, classify_mode="sample")
        q = conesim.exact_process(cfg, rho0)
        assert q.alphabet == ("0", "1", "2")
        assert np.abs(q.pi - np.diag(rho0).real).max() <= 1e-15
        assert np.abs(sum(q.d_maps.values()) - ((1 - s) * np.eye(3) + s / 3)).max() <= 1e-15
        assert np.array_equal(q.tau, np.ones(3))
        # a run starts 0, 1 with probability rho0[0, 0] T[0, 1]
        assert quasireal.word_probability(q, "01") == pytest.approx(rho0[0, 0].real * s / 3)

    def test_rejects_a_readout_that_is_not_classical(self):
        # the qubit identity channel fixes every state: its two fixed points
        # do not span the fixed space, so rounds may go unclassified
        cfg = SimulationConfig(channel=chan.identity_channel(2), kick=HaarUnitaryKick(), n_iter=1,
                               n_rounds=1, classify_mode="sample")
        with pytest.raises(ValueError, match="not a classical readout"):
            conesim.exact_process(cfg, np.eye(2) / 2)
        cfg = dataclasses.replace(cfg, channel=basis_channel(2), classify_mode="nearest")
        with pytest.raises(ValueError, match="describes sample mode"):
            conesim.exact_process(cfg, np.eye(2) / 2)


class TestConfigJson:
    def base_config_obj(self):
        return {
            "channel": chan.choi_to_json(qutrit_channel()),
            "kick": {"policy": "depolarizing", "strength": 0.5},
            "n_iter": 10,
            "n_rounds": 5,
            "classify_tol": 0.67,
            "classify": "sample",
            "seed": 3,
        }

    def test_roundtrip(self):
        cfg = conesim.config_from_json(self.base_config_obj())
        assert isinstance(cfg.kick, DepolarizingKick)
        assert cfg.classify_mode == "sample"
        assert cfg.n_rounds == 5 and cfg.seed == 3

    def test_unknown_keys_rejected(self):
        obj = self.base_config_obj()
        obj["rounds"] = 10
        with pytest.raises(ValueError):
            conesim.config_from_json(obj)

    def test_unknown_kick_rejected(self):
        obj = self.base_config_obj()
        obj["kick"] = {"policy": "teleport"}
        with pytest.raises(ValueError):
            conesim.config_from_json(obj)

    def test_fixed_kick_dimension_mismatch_rejected(self):
        obj = self.base_config_obj()
        obj["kick"] = {"policy": "fixed", "choi": chan.choi_to_json(chan.identity_channel(2))}
        with pytest.raises(ValueError, match="kick channel is 2->2"):
            conesim.config_from_json(obj)

    @pytest.mark.parametrize("field", ["classify_tol", "strength"])
    @pytest.mark.parametrize("value", [True, "0.5", float("nan"), float("inf"), None, 10 ** 400],
                             ids=["bool", "string", "nan", "inf", "null", "huge-int"])
    def test_float_field_must_be_a_finite_number(self, field, value):
        obj = self.base_config_obj()
        (obj["kick"] if field == "strength" else obj)[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            conesim.config_from_json(obj)

    def test_integer_float_fields_accepted(self):
        obj = self.base_config_obj()
        obj["classify_tol"], obj["kick"]["strength"] = 1, 0
        cfg = conesim.config_from_json(obj)
        assert (cfg.classify_tol, cfg.kick.strength) == (1.0, 0.0)
        assert type(cfg.classify_tol) is float and type(cfg.kick.strength) is float

    def test_fixed_kick_needs_choi(self):
        obj = self.base_config_obj()
        obj["kick"] = {"policy": "fixed"}
        with pytest.raises(ValueError):
            conesim.config_from_json(obj)

    def test_round_record_roundtrip(self):
        # every round classified, and 37 of 40 rounds unclassified (written as null)
        for c, classify_tol, n_rounds, unclassified in ((qutrit_channel(), 0.67, 6, 0),
                                                        (chan.identity_channel(2), 0.3, 40, 37)):
            cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=20, n_rounds=n_rounds,
                                   classify_tol=classify_tol, classify_mode="sample", seed=4)
            traj = run(cfg, np.eye(c.d_in) / c.d_in)
            back = [json.loads(json.dumps(rec)) for rec in conesim.trajectory_to_json(traj)]
            assert traj.symbols().count(None) == unclassified
            assert conesim.symbols_from_json(back) == traj.symbols()
            for rec, r in zip(back, traj.rounds):
                # repr of a float reads back to the same bits, signed zeros included
                assert np.asarray(rec["weights"], dtype=float).tobytes() == r.weights.tobytes()
                assert np.float64(rec["residual"]).tobytes() == np.float64(r.residual).tobytes()
            fps = [linops.matrix_from_json(m) for m in back[0]["fixed_points"]]
            assert all(np.array_equal(a, b) for a, b in zip(fps, traj.fixed_points))


class TestRoundWeightsProperties:
    """Every round of either mode records nonnegative weights over the fixed
    points that are a convex decomposition of its settled state, on
    random separable channels (1-3 sectors of rank 1-2, optional decay
    dimensions)."""

    @given(sectors=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=2),
                            min_size=1, max_size=3),
           extra=st.integers(0, 2),
           mode=st.sampled_from(conesim.CLASSIFY_MODES),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(sectors=[[0.7, 0.3], [1.0]], extra=0, mode="sample", seed=0)
    @example(sectors=[[0.7, 0.3], [1.0]], extra=0, mode="nearest", seed=0)
    @example(sectors=[[0.6, 0.4]], extra=1, mode="sample", seed=1)
    @example(sectors=[[0.6, 0.4]], extra=1, mode="nearest", seed=1)
    def test_weights_decompose_the_settled_state(self, sectors, extra, mode, seed):
        rng = np.random.default_rng(seed)
        _, c = mixed_sector_channel(rng, sectors, extra)
        cfg = SimulationConfig(channel=c, kick=HaarUnitaryKick(), n_iter=2000, n_rounds=5,
                               classify_mode=mode, seed=seed)
        traj = run(cfg, random_density(rng, c.d_in))
        fps = np.asarray(traj.fixed_points)
        for r in traj.rounds:
            assert r.weights.shape == (len(fps),)
            assert (r.weights >= 0).all()
            assert abs(r.weights.sum() - 1.0) <= 1e-10
            assert np.linalg.norm(np.tensordot(r.weights, fps, axes=1) - r.settled_state) <= 1e-10


# ----------------------------------------------------------------------
# Sample mode in blocks against the rounds run one at a time
# ----------------------------------------------------------------------

def _stack_re_im_one(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)])


def run_one_round_at_a_time(config: SimulationConfig, rho0) -> conesim.Trajectory:
    """``conesim.run`` as it was before sample-mode rounds ran in blocks:
    every round settled, resolved by NNLS, classified and kicked in turn.
    The body is kept verbatim, with its weights and symbol-draw helpers
    inlined as they were and its stacking helper copied."""
    state = linops.check_density(rho0, tol=1e-7)
    if state.shape != (config.channel.d_in,) * 2:
        raise ValueError("initial state dimension does not match the channel")
    fp_set = chan.fixed_points(config.channel)
    steps = conesim._settle_steps(fp_set.spectrum, config.n_iter)
    fps, p1 = fp_set.states, fp_set.projector
    columns = np.column_stack([_stack_re_im_one(fp) for fp in fps])
    rng = np.random.default_rng(config.seed)
    rounds: list[conesim.Round] = []
    for _ in range(config.n_rounds):
        settled = linops.hermitize((p1 @ state.reshape(-1)).reshape(state.shape))
        weights, resid = nnls(columns, _stack_re_im_one(settled))
        resid = float(resid)
        if config.classify_mode == "sample":
            total = weights.sum()
            if resid <= config.classify_tol and total > 0:
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
                symbol = int(cdf.searchsorted(rng.random(), side="right"))
            else:
                symbol = None
        else:
            dists = np.array([trace_distance(settled, fp) for fp in fps])
            best = int(np.flatnonzero(dists <= dists.min() + conesim.TIE_TOL)[0])
            symbol = best if dists[best] <= config.classify_tol else None
        kick_input = fps[symbol] if (config.classify_mode == "sample" and symbol is not None) else settled
        post = linops.hermitize(config.kick.apply(kick_input, rng))
        rounds.append(conesim.Round(settled_state=settled, symbol=symbol, settle_steps=steps,
                                    post_kick_state=post, weights=weights, residual=resid))
        state = post
    return conesim.Trajectory(rounds=rounds, fixed_points=fps)


def assert_same_trajectory(traj: conesim.Trajectory, ref: conesim.Trajectory) -> None:
    assert traj.symbols() == ref.symbols()
    assert [r.settle_steps for r in traj.rounds] == [r.settle_steps for r in ref.rounds]
    for r, q in zip(traj.rounds, ref.rounds):
        assert np.abs(r.weights - q.weights).max() <= 1e-12
        assert abs(r.residual - q.residual) <= 1e-12
        assert np.abs(r.settled_state - q.settled_state).max() <= 1e-12
        assert np.abs(r.post_kick_state - q.post_kick_state).max() <= 1e-12


def sample_config(d: int, kick: str, channel: str, classify_tol: float, n_rounds: int,
                  seed: int) -> SimulationConfig:
    rng = np.random.default_rng(seed)
    if channel == "identity":
        c = chan.identity_channel(d)
    elif channel == "sectors":  # a rank-2 sector, then pure ones, then one decaying dimension
        c = mixed_sector_channel(rng, [[0.7, 0.3]] + [[1.0]] * (d - 3), extra=1)[1] if d > 2 \
            else mixed_sector_channel(rng, [[1.0], [1.0]])[1]
    else:
        c = basis_channel(d)
    policy = {"haar": HaarUnitaryKick(), "depolarizing": DepolarizingKick(0.3),
              "fixed": FixedKick(choi=chan.unitary_channel(haar_unitary(d, rng)))}[kick]
    return SimulationConfig(channel=c, kick=policy, n_iter=2000, n_rounds=n_rounds,
                            classify_tol=classify_tol, classify_mode="sample", seed=seed)


class TestSampleBlocks:
    """Sample-mode rounds run in blocks of up to BLOCK, with their draws
    taken ahead and replayed after a block is cut; the trajectory must be
    the one the rounds give run one at a time: the same symbols, and
    weights, residuals and states to 1e-12."""

    @given(d=st.integers(2, 5),
           kick=st.sampled_from(["haar", "depolarizing", "fixed"]),
           channel=st.sampled_from(["basis", "sectors", "identity"]),
           classify_tol=st.sampled_from([conesim.CLASSIFY_TOL, 0.05, 0.3, 0.7]),
           n_rounds=st.sampled_from([1, conesim.MIN_BLOCK - 1, conesim.MIN_BLOCK,
                                     conesim.BLOCK + 1, 600]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    # qubit and qutrit identity channels: classified and unclassified rounds
    # mix, so blocks are cut and their draws replayed (at 0.7 after runs of
    # several classified rounds)
    @example(d=2, kick="haar", channel="identity", classify_tol=0.05, n_rounds=600, seed=0)
    @example(d=2, kick="haar", channel="identity", classify_tol=0.3, n_rounds=600, seed=0)
    @example(d=3, kick="haar", channel="identity", classify_tol=0.05, n_rounds=600, seed=0)
    @example(d=3, kick="haar", channel="identity", classify_tol=0.3, n_rounds=600, seed=0)
    @example(d=2, kick="haar", channel="identity", classify_tol=0.7, n_rounds=600, seed=0)
    @example(d=3, kick="haar", channel="identity", classify_tol=0.7, n_rounds=600, seed=0)
    @example(d=2, kick="fixed", channel="identity", classify_tol=0.3, n_rounds=600, seed=2)
    @example(d=3, kick="depolarizing", channel="identity", classify_tol=0.05, n_rounds=600, seed=0)
    # many cuts, and blocks that start right after an unclassified round
    @example(d=4, kick="haar", channel="identity", classify_tol=0.8, n_rounds=600, seed=0)
    @example(d=8, kick="haar", channel="identity", classify_tol=0.9, n_rounds=600, seed=0)
    # every kick at d = 2..5, every round classified, more rounds than a block
    @example(d=2, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=3, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=4, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=5, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=2, kick="depolarizing", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=3, kick="depolarizing", channel="sectors", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=4, kick="fixed", channel="sectors", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=5, kick="fixed", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=4, kick="haar", channel="sectors", classify_tol=conesim.CLASSIFY_TOL, n_rounds=600, seed=1)
    @example(d=5, kick="depolarizing", channel="sectors", classify_tol=0.3, n_rounds=600, seed=1)
    # a block of one round, blocks too short to run, one round past a block
    @example(d=2, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL, n_rounds=1, seed=3)
    @example(d=2, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL,
             n_rounds=conesim.MIN_BLOCK - 1, seed=3)
    @example(d=2, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL,
             n_rounds=conesim.MIN_BLOCK, seed=3)
    @example(d=3, kick="haar", channel="basis", classify_tol=conesim.CLASSIFY_TOL,
             n_rounds=conesim.BLOCK + 1, seed=3)
    def test_matches_rounds_run_one_at_a_time(self, d, kick, channel, classify_tol, n_rounds, seed):
        cfg = sample_config(d, kick, channel, classify_tol, n_rounds, seed)
        rho0 = random_density(np.random.default_rng(seed + 1), d)
        assert_same_trajectory(run(cfg, rho0), run_one_round_at_a_time(cfg, rho0))

    @pytest.mark.parametrize("kick, fake", [
        pytest.param(kick, fake, id=kick if fake == "rolled" else f"{fake}-{kick}")
        for fake in ("rolled", "all-negative", "all-zero") for kick in ("haar", "depolarizing")])
    def test_the_resolved_weights_decide_not_the_table(self, monkeypatch, kick, fake):
        # a table that predicts the symbols wrongly, often, or whose predicted
        # weights are all <= 0, only cuts blocks short: each round's symbol is
        # drawn again from its resolved weights
        fake_weights = {"rolled": lambda w: np.roll(w, 1, axis=-1),
                        "all-negative": lambda w: np.full_like(w, -1.0),
                        "all-zero": np.zeros_like}[fake]
        table_weights = conesim._WeightTable.weights
        monkeypatch.setattr(conesim._WeightTable, "weights",
                            lambda self, u: fake_weights(table_weights(self, u)))
        cfg = sample_config(3, kick, "basis", conesim.CLASSIFY_TOL, 600, seed=4)
        rho0 = np.eye(3) / 3
        assert_same_trajectory(run(cfg, rho0), run_one_round_at_a_time(cfg, rho0))

    def test_weights_are_nnls_and_a_readout_not_a_povm_raises(self, monkeypatch, tmp_path, capsys):
        # an identity kick leaves the collapsed fixed point in place, so the
        # weights on the other fixed points are 0 and their least-squares
        # values round to either side of it: clipped at 0, they are the NNLS
        # weights
        cfg = SimulationConfig(channel=mixed_sector_channel(np.random.default_rng(5),
                                                            [[0.6, 0.4], [1.0], [1.0]])[1],
                               kick=FixedKick(choi=chan.identity_channel(4)), n_iter=2000,
                               n_rounds=600, classify_mode="sample", seed=5)
        rho0 = np.eye(4) / 4
        traj = run(cfg, rho0)
        columns = conesim._stack_re_im(np.array(traj.fixed_points)).T
        for r in traj.rounds:
            assert (r.weights >= 0).all()
            expected, _ = nnls(columns, conesim._stack_re_im(r.settled_state[None])[0])
            assert np.abs(r.weights - expected).max() <= 1e-15
        assert_same_trajectory(traj, run_one_round_at_a_time(cfg, rho0))

        # the qubit identity channel fixes every state; with the
        # non-orthogonal pair |0><0|, |+><+| as its fixed points, H_0 has a
        # negative eigenvalue, so the run raises before its first round, and
        # the CLI reports it as numerical-limit, exit 4
        identity = chan.identity_channel(2)
        fp_set = chan.fixed_points(identity)
        plus = np.full((2, 2), 0.5, dtype=complex)
        monkeypatch.setattr(conesim.chan, "fixed_points", lambda c: dataclasses.replace(
            fp_set, states=[basis_proj(0, 2), plus], eigenvalue_residuals=[0.0, 0.0]))
        cfg = SimulationConfig(channel=identity, kick=HaarUnitaryKick(), n_iter=1, n_rounds=600,
                               classify_tol=0.7, classify_mode="sample", seed=5)
        message = r"their rank is 2 \(needs 2\) and the least eigenvalue of their H_l is -0\.412"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            run(cfg, np.eye(2) / 2)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"channel": chan.choi_to_json(identity), "kick": {"policy": "haar"},
                                      "n_iter": 1, "n_rounds": 600, "classify_tol": 0.7,
                                      "classify": "sample", "seed": 5}))
        assert cli.main(["conesim", "run", "--config", str(config),
                         "--out", str(tmp_path / "t.jsonl")]) == 4
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and json.loads(line)["reason"] == "numerical-limit"
        assert "least eigenvalue of their H_l is -0.412" in json.loads(line)["error"]

    @given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
           decay=st.integers(0, 2), scaled=st.booleans(), random_d=st.none() | st.integers(2, 6),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    # M_2 (the qubit identity), M_2 + C with a decay dimension, M_2 (x) C^2,
    # and C + C (x) C^2 with omega's least eigenvalue at 1e-6 of its share
    @example(blocks=[(2, 1)], decay=0, scaled=False, random_d=None, seed=0)
    @example(blocks=[(2, 1), (1, 1)], decay=1, scaled=False, random_d=None, seed=0)
    @example(blocks=[(2, 2)], decay=0, scaled=False, random_d=None, seed=0)
    @example(blocks=[(1, 1), (1, 2)], decay=0, scaled=True, random_d=None, seed=0)
    @example(blocks=[(1, 1)], decay=0, scaled=False, random_d=6, seed=0)
    def test_every_fixed_set_is_a_povm_readout(self, blocks, decay, scaled, random_d, seed):
        # ``_Readout`` raises on fixed points that are not a POVM readout, and
        # the sample-mode weights are least squares only; this is the
        # invariant that makes both sound: block channels of
        # sum_k M_{n_k} (x) omega_k, and random channels (random_d set, read as
        # one block n = 1), give independent fixed points whose H_l are
        # positive semidefinite, one per n_k, classical exactly when every
        # n_k is 1
        rng = np.random.default_rng(seed)
        if random_d is not None:
            c, ns = chan.random_cptp_choi(random_d, rng), [1]
        else:
            assume(sum(n * m for n, m in blocks) + decay <= 7)
            c, ns = block_channel(rng, blocks, decay, scaled), [n for n, _ in blocks]
        fp_set = chan.fixed_points(c)
        readout = conesim._Readout.of(fp_set)
        assert len(fp_set.states) == sum(ns)
        assert readout.classical == all(n == 1 for n in ns)

    @given(sectors=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=2),
                            min_size=1, max_size=3),
           extra=st.integers(0, 2),
           kick=st.sampled_from(["haar", "depolarizing", "fixed"]),
           classify_tol=st.sampled_from([conesim.CLASSIFY_TOL, 0.3]),
           n_rounds=st.sampled_from([1, 2, conesim.BLOCK + 1]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(sectors=[[0.7, 0.3], [1.0]], extra=1, kick="haar", classify_tol=conesim.CLASSIFY_TOL,
             n_rounds=conesim.BLOCK + 1, seed=0)
    @example(sectors=[[0.6, 0.4], [1.0], [1.0]], extra=0, kick="fixed",
             classify_tol=conesim.CLASSIFY_TOL, n_rounds=conesim.BLOCK + 1, seed=1)
    @example(sectors=[[0.6, 0.4]], extra=2, kick="depolarizing", classify_tol=0.3, n_rounds=2, seed=2)
    # the least classify_tol allowed: every round is classified all the same
    @example(sectors=[[0.7, 0.3], [1.0]], extra=1, kick="haar", classify_tol=linops.RANK_TOL,
             n_rounds=conesim.BLOCK + 1, seed=0)
    def test_classical_readouts_match_rounds_run_one_at_a_time(self, sectors, extra, kick,
                                                               classify_tol, n_rounds, seed):
        # mixed-sector fixed sets are classical: every classified round that
        # runs alone starts a block of all the rounds left, up to BLOCK
        rng = np.random.default_rng(seed)
        _, c = mixed_sector_channel(rng, sectors, extra)
        policy = {"haar": HaarUnitaryKick(), "depolarizing": DepolarizingKick(0.4),
                  "fixed": FixedKick(choi=chan.random_cptp_choi(c.d_in, rng))}[kick]
        cfg = SimulationConfig(channel=c, kick=policy, n_iter=2000, n_rounds=n_rounds,
                               classify_tol=classify_tol, classify_mode="sample", seed=seed)
        rho0 = random_density(rng, c.d_in)
        assert conesim._Readout.of(chan.fixed_points(c)).classical
        assert_same_trajectory(run(cfg, rho0), run_one_round_at_a_time(cfg, rho0))

    def test_dependent_fixed_points_raise(self):
        # least squares over dependent columns picks the minimum-norm
        # solution, which need not be the NNLS one: such fixed points are
        # not a readout
        fps = np.array([basis_proj(0, 2), basis_proj(1, 2), np.eye(2, dtype=complex) / 2])
        with pytest.raises(np.linalg.LinAlgError, match=r"their rank is 2 \(needs 3\)"):
            conesim._Readout(fps, np.eye(4, dtype=complex), conesim._stack_re_im(fps).T)

    def test_an_empty_stack_has_no_weights(self):
        readout = conesim._Readout.of(chan.fixed_points(basis_channel(3)))
        settled = np.empty((0, 3, 3), dtype=complex)
        weights, residuals = conesim._fixed_point_weights(settled, readout)
        assert weights.shape == (0, 2) and residuals.shape == (0,)
