import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from conekit import channel as chan
from conekit import conesim, engineer, linops, quasireal
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

from conftest import basis_proj, mixed_sector_channel, random_density


def qutrit_channel() -> ChoiMatrix:
    """The qutrit dephasing channel: the separable core of |0><0| and |1><1|,
    completed by B = |2><2| (w = 0, so B is a third fixed point)."""
    spec = engineer.SeparableMultiSpec.from_states(
        [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
    )
    return spec.channel


def haar_unitary_by_numpy_qr(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Mezzadri's construction through np.linalg.qr: the reference for
    haar_unitary, which calls LAPACK directly."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_numpy_qr_construction(self, dim):
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            u = haar_unitary(dim, rng)
            assert np.abs(u - haar_unitary_by_numpy_qr(dim, ref_rng)).max() <= 1e-13
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
        cfg = SimulationConfig(channel=qutrit_channel(), kick=HaarUnitaryKick(), n_iter=20,
                               n_rounds=6, classify_tol=0.67, classify_mode="sample", seed=4)
        traj = run(cfg, np.eye(3) / 3)
        back = [json.loads(json.dumps(rec)) for rec in conesim.trajectory_to_json(traj)]
        assert conesim.symbols_from_json(back) == traj.symbols()
        for rec, r in zip(back, traj.rounds):
            # repr of a float reads back to the same bits, signed zeros included
            assert np.asarray(rec["weights"], dtype=float).tobytes() == r.weights.tobytes()
            assert np.float64(rec["residual"]).tobytes() == np.float64(r.residual).tobytes()
        fps = [linops.matrix_from_json(m) for m in back[0]["fixed_points"]]
        assert all(np.array_equal(a, b) for a, b in zip(fps, traj.fixed_points))


class TestRoundWeightsProperties:
    """Every round of either mode records NNLS weights over the fixed
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
