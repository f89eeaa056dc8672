import numpy as np
import pytest
from scipy.stats import chi2

from conekit import channel as chan
from conekit import conesim, engineer, quasireal
from conekit.channel import ChoiMatrix
from conekit.conesim import (
    DepolarizingKick,
    FixedKick,
    HaarUnitaryKick,
    Round,
    SimulationConfig,
    Trajectory,
    estimate_process,
    haar_unitary,
    run,
    to_quasi_realization,
)
from conekit.linops import kron, trace_distance

from conftest import basis_proj, mixed_sector_channel, random_density


def qutrit_channel() -> ChoiMatrix:
    spec = engineer.SeparableMultiSpec.from_states(
        [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
    )
    return engineer.build_separable_multi(spec)


def synthetic_trajectory(symbols) -> Trajectory:
    eye = np.eye(2, dtype=complex) / 2
    rounds = [Round(settled_state=eye, symbol=s, settle_steps=1, post_kick_state=eye)
              for s in symbols]
    return Trajectory(rounds=rounds)


class TestHaarUnitary:
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
        symbols = traj.symbols()
        assert all(s == 1 for s in symbols)  # mixing toward I/3 keeps the argmax
        assert all(r.settle_steps <= 2 for r in traj.rounds)

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


class TestEstimateProcess:
    def test_constant_sequence(self):
        proc = estimate_process(synthetic_trajectory([1] * 10))
        assert proc.symbols == [1]
        assert proc.counts.tolist() == [[9]]
        assert proc.transition_estimate.tolist() == [[1.0]]
        assert proc.stationary_estimate.tolist() == [1.0]

    def test_alternating_sequence(self):
        proc = estimate_process(synthetic_trajectory([0, 1] * 20))
        assert proc.symbols == [0, 1]
        assert np.abs(proc.transition_estimate - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12
        assert np.allclose(proc.stationary_estimate, [0.5, 0.5])

    def test_unclassified_breaks_pairs(self):
        proc = estimate_process(synthetic_trajectory([0, None, 1, 1]))
        # only the (1, 1) adjacency is countable
        assert proc.symbols == [0, 1] or proc.symbols == [1]
        assert proc.counts.sum() == 1

    def test_requires_two_classified(self):
        with pytest.raises(ValueError):
            estimate_process(synthetic_trajectory([0, None, None]))

    def test_rows_exactly_normalized(self):
        proc = estimate_process(synthetic_trajectory([0, 0, 1, 0, 1, 1, 0]))
        for i, row in enumerate(proc.transition_estimate):
            if proc.counts[i].sum() > 0:
                assert abs(row.sum() - 1.0) < 1e-12


class TestToQuasiRealization:
    def test_alternating_word_probabilities(self):
        proc = estimate_process(synthetic_trajectory([0, 1] * 30))
        q = to_quasi_realization(proc)
        assert quasireal.word_probability(q, "01") == pytest.approx(0.5)
        assert quasireal.word_probability(q, "00") == pytest.approx(0.0)
        assert quasireal.is_positive_realization(q, tol=1e-9).all_ok

    def test_constant_word_probabilities(self):
        proc = estimate_process(synthetic_trajectory([0] * 12))
        q = to_quasi_realization(proc)
        for k in range(1, 6):
            assert quasireal.word_probability(q, "0" * k) == pytest.approx(1.0)

    def test_missing_rows_rejected(self):
        proc = estimate_process(synthetic_trajectory([0, 0, 1]))  # symbol 1 has no exit
        with pytest.raises(ValueError) as exc:
            to_quasi_realization(proc)
        assert "1" in str(exc.value)

    def test_bigram_frequencies_match(self):
        cfg = SimulationConfig(channel=qutrit_channel(), kick=DepolarizingKick(0.5),
                               n_iter=20, n_rounds=3000, classify_tol=0.67,
                               classify_mode="sample", seed=9)
        traj = run(cfg, np.eye(3) / 3)
        proc = estimate_process(traj)
        q = to_quasi_realization(proc)
        symbols = [s for s in traj.symbols() if s is not None]
        pairs = list(zip(symbols[:-1], symbols[1:]))
        dist = quasireal.word_distribution(q, 2)
        for (a, b), p_model in dist.items():
            p_emp = sum(1 for x, y in pairs if str(x) == a and str(y) == b) / len(pairs)
            assert abs(p_model - p_emp) < 0.02


class TestExactProcess:
    """Sample mode on the qutrit dephasing channel with a depolarizing kick
    of strength s emits an exact Markov chain: the kick takes the collapsed
    vertex |i><i| to (1 - s)|i><i| + s I/3, whose weights over the three
    fixed points give T = (1 - s) I + (s/3) J."""

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

    def test_fixed_kick_needs_choi(self):
        obj = self.base_config_obj()
        obj["kick"] = {"policy": "fixed"}
        with pytest.raises(ValueError):
            conesim.config_from_json(obj)

    def test_round_record_roundtrip(self, rng):
        r = Round(settled_state=random_density(rng, 2), symbol=None,
                  settle_steps=3, post_kick_state=random_density(rng, 2))
        back = conesim.round_from_json(conesim.round_to_json(r, 7))
        assert back.symbol is None and back.settle_steps == 3
        assert np.abs(back.settled_state - r.settled_state).max() < 1e-15
