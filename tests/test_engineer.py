import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conekit import channel as chan
from conekit import cli, engineer, linops
from conekit.conesim import haar_unitary
from conekit.engineer import (
    ConstructionError,
    SeparableMultiSpec,
    build_separable_multi,
    build_via_sdp,
    find_discrimination_projectors,
    fixed_point_face,
)
from conekit.linops import kron, trace_distance

from conftest import basis_proj, random_density, sample_valid_single_pair


def random_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


class TestComplete:
    """X + B (x) (I - tr_H1[X]), the completion every construction ends with."""

    dims = st.integers(1, 4)
    seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

    @given(d=dims, seed=seeds)
    @example(d=1, seed=0)
    def test_trace_preserving_for_any_core(self, d, seed):
        rng = np.random.default_rng(seed)
        x = random_psd(rng, d * d, d * d) / d
        c = engineer._complete(x, random_density(rng, d))
        reduced = linops.partial_trace(c.matrix, (d, d), over=1)
        assert np.abs(reduced - np.eye(d)).max() <= 1e-12

    @given(d=dims, rank=st.integers(1, 4), seed=seeds)
    @example(d=1, rank=1, seed=0)
    @example(d=4, rank=1, seed=0)
    def test_fixes_sigma_of_a_projector_core(self, d, rank, seed):
        rng = np.random.default_rng(seed)
        sigma = random_density(rng, d)
        pi = random_psd(rng, d, min(rank, d))
        pi /= np.linalg.eigvalsh(pi).max()
        overlap = float(np.trace(pi @ sigma).real)
        assume(overlap > 1e-3)
        c = engineer._complete(kron(sigma, pi.T) / overlap, random_density(rng, d))
        assert np.abs(linops.partial_trace(c.matrix, (d, d), over=1) - np.eye(d)).max() <= 1e-12
        assert trace_distance(chan.apply(c, sigma), sigma) <= 1e-12


def engineer_single(tmp_path, capsys, sigma, b, *flags):
    """Exit code and JSON output (stdout, else stderr) of ``engineer single``."""
    paths = []
    for name, m in (("sigma", sigma), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(linops.matrix_to_json(m)))
    code = cli.main(["engineer", "single", "--sigma", str(paths[0]), "--b", str(paths[1]), *flags])
    captured = capsys.readouterr()
    return code, json.loads(captured.out or captured.err)


class TestSingleFixedPoint:
    """One state with its top-eigenvector projector, the core of ``engineer single``."""

    top = staticmethod(SeparableMultiSpec.from_top_eigenvector)

    def test_pure_sigma_orthogonal_b_gives_dephasing(self):
        c = build_separable_multi(self.top(basis_proj(0, 2), basis_proj(1, 2)))
        expected = kron(basis_proj(0, 2), basis_proj(0, 2)) + kron(basis_proj(1, 2), basis_proj(1, 2))
        assert np.abs(c.matrix - expected).max() < 1e-12

    def test_maximally_mixed_sigma_uses_tiebreak(self):
        b = basis_proj(1, 2)
        spec = self.top(np.eye(2) / 2, b)
        assert abs(spec.cross_overlaps[0, 0] - 0.5) < 1e-12
        assert np.abs(spec.projectors[0] - basis_proj(0, 2)).max() < 1e-12
        c = build_separable_multi(spec)
        expected = kron(np.eye(2) - b, basis_proj(0, 2)) + kron(b, basis_proj(1, 2))
        assert np.abs(c.matrix - expected).max() < 1e-12
        assert trace_distance(chan.apply(c, np.eye(2) / 2), np.eye(2) / 2) < 1e-12

    def test_boundary_overlap_accepted(self):
        c = build_separable_multi(self.top(basis_proj(0, 2), basis_proj(0, 2)))
        rep = chan.is_cptp(c)
        assert rep.cp and rep.tp
        assert trace_distance(chan.apply(c, basis_proj(0, 2)), basis_proj(0, 2)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_b_equal_to_sigma_gives_the_replacement_channel(self, rng, d, tmp_path, capsys):
        # b_weight is 1 up to rounding in either direction (margin 0.0 and
        # -2.2e-16 occur at d = 3, 4); DECAY_TOL accepts both
        sigma = random_density(rng, d)
        spec = self.top(sigma, sigma)
        assert abs(spec.convergence_margin) < 1e-12
        c = build_separable_multi(spec)
        rho = random_density(rng, d)
        assert trace_distance(chan.apply(c, rho), sigma) < 1e-12
        code, out = engineer_single(tmp_path, capsys, sigma, sigma)
        assert code == 0
        assert np.abs(chan.choi_from_json(out["channel"]).matrix - c.matrix).max() == 0

    def test_violation_rejected_with_named_inequality(self, tmp_path, capsys):
        sigma = np.diag([0.7, 0.3]).astype(complex)
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(self.top(sigma, basis_proj(0, 2)))
        assert exc.value.reason == "decay-weight-too-large"
        code, err = engineer_single(tmp_path, capsys, sigma, basis_proj(0, 2))
        assert code == 3
        assert err["reason"] == "overlap-exceeds-lambda-max"
        assert "lambda_max" in err["error"]
        assert err["details"] == pytest.approx({"overlap": 1.0, "lambda_max": 0.7}, abs=1e-12)

    def test_valid_pairs_give_cptp_fixed_point(self, rng):
        for dim in (2, 3, 4):
            for _ in range(15):
                sigma, b = sample_valid_single_pair(rng, dim)
                c = build_separable_multi(self.top(sigma, b))
                rep = chan.is_cptp(c)
                assert rep.cp and rep.tp
                assert trace_distance(chan.apply(c, sigma), sigma) < 1e-9

    def test_qubit_always_cptp_even_on_violation(self, rng):
        # in dimension 2 the construction is CPTP regardless of the overlap
        # condition; the condition guards the iterable-input set instead
        for _ in range(20):
            sigma = random_density(rng, 2)
            b = random_density(rng, 2)
            c = build_separable_multi(self.top(sigma, b), validate=False)
            rep = chan.is_cptp(c)
            assert rep.cp and rep.tp

    def test_report_fields(self, tmp_path, capsys):
        code, out = engineer_single(tmp_path, capsys, basis_proj(0, 2), basis_proj(1, 2), "--report")
        assert code == 0
        rep = out["report"]
        assert list(rep) == ["lambda_max", "vmax_overlap", "overlap_margin", "cp_factor_min_eig",
                             "choi_min_eig", "tp_residual", "cp", "tp", "fixed_point_residual"]
        assert rep["cp"] and rep["tp"]
        assert rep["fixed_point_residual"] < 1e-12
        assert abs(rep["lambda_max"] - 1.0) < 1e-12
        assert abs(rep["vmax_overlap"]) < 1e-12


class TestDiscrimination:
    def test_orthogonal_pure_states(self):
        rep = find_discrimination_projectors([basis_proj(0, 2), basis_proj(1, 2)])
        assert rep.feasible
        assert np.abs(rep.projectors[0] - basis_proj(0, 2)).max() < 1e-10
        assert np.abs(rep.projectors[1] - basis_proj(1, 2)).max() < 1e-10
        assert np.allclose(rep.overlaps, [1.0, 1.0])

    def test_nonorthogonal_pure_states_are_discriminable(self):
        # kernel-analysis oracle: ker|+><+| = span|->, ker|0><0| = span|1>,
        # so Pi_0 = |-><-|, Pi_1 = |1><1| and both detection overlaps are 1/2
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        minus = linops.ket_projector(np.array([1.0, -1.0]) / np.sqrt(2))
        rep = find_discrimination_projectors([basis_proj(0, 2), plus])
        assert rep.feasible
        assert np.abs(rep.projectors[0] - minus).max() < 1e-10
        assert np.abs(rep.projectors[1] - basis_proj(1, 2)).max() < 1e-10
        assert np.allclose(rep.overlaps, [0.5, 0.5])
        # cross annihilation holds exactly
        assert abs(np.trace(basis_proj(0, 2) @ rep.projectors[1]).real) < 1e-12
        assert abs(np.trace(plus @ rep.projectors[0]).real) < 1e-12

    def test_full_rank_partner_is_infeasible(self):
        rep = find_discrimination_projectors([basis_proj(0, 2), np.eye(2) / 2])
        assert not rep.feasible
        assert rep.failing_index == 0
        assert rep.kernel_ranks[0] == 0
        assert rep.overlaps[0] <= 1e-10

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            find_discrimination_projectors([basis_proj(0, 2)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            find_discrimination_projectors([basis_proj(0, 2), np.eye(3) / 3])


class TestSeparableMulti:
    def qutrit_spec(self):
        return SeparableMultiSpec.from_states(
            [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
        )

    def test_qutrit_matches_direct_expansion(self):
        c = build_separable_multi(self.qutrit_spec())
        expected = sum(kron(basis_proj(i, 3), basis_proj(i, 3)) for i in range(3))
        assert np.abs(c.matrix - expected).max() < 1e-12
        for i in (0, 1):
            s = basis_proj(i, 3)
            assert trace_distance(chan.apply(c, s), s) < 1e-12

    def test_degenerate_residual_makes_b_irrelevant(self, rng):
        states = [basis_proj(0, 2), basis_proj(1, 2)]
        spec_a = SeparableMultiSpec.from_states(states, b=random_density(rng, 2))
        spec_b = SeparableMultiSpec.from_states(states, b=random_density(rng, 2))
        assert spec_a.degenerate and spec_b.degenerate
        ca = build_separable_multi(spec_a)
        cb = build_separable_multi(spec_b)
        assert np.abs(ca.matrix - cb.matrix).max() < 1e-12
        expected = kron(basis_proj(0, 2), basis_proj(0, 2)) + kron(basis_proj(1, 2), basis_proj(1, 2))
        assert np.abs(ca.matrix - expected).max() < 1e-12

    def test_trace_error_within_tolerance_stays_degenerate(self):
        # tr sigma_0 = 1 - 5e-8 passes check_density; the core still has
        # tr_H1[X] = I, so B never acts and both states stay fixed
        states = [np.diag([1 - 5e-8, 0.0]), np.diag([0.0, 1.0])]
        spec = SeparableMultiSpec.from_states(states)
        assert spec.degenerate
        c = build_separable_multi(spec)
        for s in states:
            assert trace_distance(chan.apply(c, s), s) < 1e-12

    @given(d=st.integers(2, 6), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(d=1, seed=0)
    @example(d=2, seed=0)
    def test_decay_verdict_is_that_of_the_assembled_core(self, d, seed):
        # states on disjoint blocks of a Haar basis, traces within 1e-7 of 1,
        # with their support projectors
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        covered = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, covered + 1))
        cuts = np.sort(rng.choice(np.arange(1, covered), size=k - 1, replace=False))
        sigmas, projs = [], []
        for cols in np.split(u[:, :covered], cuts, axis=1):
            w = rng.uniform(0.1, 1.0, cols.shape[1])
            w *= (1.0 + rng.uniform(-9e-8, 9e-8)) / w.sum()
            sigmas.append((cols * w) @ cols.conj().T)
            projs.append(cols @ cols.conj().T)
        b = random_density(rng, d)
        spec = SeparableMultiSpec.from_parts(sigmas, projs, b=b)
        core = sum(kron(s, p.T) / ov
                   for s, p, ov in zip(sigmas, projs, np.diag(spec.cross_overlaps)))
        x_out = linops.partial_trace(core, (d, d), over=1)
        assert abs(1.0 - spec.convergence_margin - np.trace(x_out @ b.T).real) <= 1e-12
        assert spec.degenerate == engineer._decay_weight(x_out, b)[1]
        assert spec.degenerate == (covered == d)

    def test_single_pure_state_reduces_to_closed_form(self):
        sigma = basis_proj(0, 2)
        b = basis_proj(1, 2)
        spec = SeparableMultiSpec.from_states([sigma], b=b)
        via_multi = build_separable_multi(spec)
        # sigma (x) P^T / lambda_max, P the projector onto the top eigenvector
        w, v = linops.herm_eig(sigma)
        closed_form = engineer._complete(kron(sigma, linops.ket_projector(v[:, 0]).T) / w[0], b)
        assert np.abs(via_multi.matrix - closed_form.matrix).max() < 1e-12

    def test_condition1_error_names_annihilation(self):
        spec = self.qutrit_spec()
        bad = SeparableMultiSpec.from_parts(
            spec.sigmas,
            [spec.projectors[0], spec.projectors[1] + 0.1 * basis_proj(0, 3)],
            b=spec.b,
        )
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "cross-overlap-nonzero"

    def test_condition2_error_names_detection(self):
        bad = SeparableMultiSpec.from_parts(
            [basis_proj(0, 3), basis_proj(1, 3)],
            [basis_proj(2, 3), basis_proj(1, 3)],  # Pi_0 never detects sigma_0
            b=basis_proj(2, 3),
        )
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "zero-detection-overlap"

    def test_condition3_error_names_decay_weight(self):
        # full-kernel projectors in dim 4 put too much decay weight on B
        v = [np.zeros(4) for _ in range(4)]
        for i in range(4):
            v[i][i] = 1.0
        sigma0, sigma1 = basis_proj(0, 4), basis_proj(1, 4)
        pi0 = basis_proj(0, 4) + basis_proj(2, 4) + basis_proj(3, 4)
        pi1 = basis_proj(1, 4) + basis_proj(2, 4) + basis_proj(3, 4)
        bad = SeparableMultiSpec.from_parts([sigma0, sigma1], [pi0, pi1], b=np.eye(4) / 4)
        assert not bad.degenerate
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "decay-weight-too-large"

    @pytest.mark.parametrize("sigmas, projectors, b, message", [
        ([np.eye(2) / 2], [np.eye(2)], np.eye(3) / 3, "B is 3x3, but state 0 is 2x2"),
        ([np.eye(2) / 2], [np.eye(2)], np.eye(1), "B is 1x1, but state 0 is 2x2"),
        ([np.eye(2) / 2, np.eye(3) / 3], [np.eye(2), np.eye(3)], None,
         "state 1 is 3x3, but state 0 is 2x2"),
        ([np.eye(2) / 2], [np.eye(3)], None, "projector 0 is 3x3, but state 0 is 2x2"),
    ], ids=["b-larger", "b-one-by-one", "state", "projector"])
    def test_dimension_mismatch_is_named(self, sigmas, projectors, b, message):
        with pytest.raises(ValueError, match=message):
            SeparableMultiSpec.from_parts(sigmas, projectors, b=b)

    def test_infeasible_states_raise_through_from_states(self):
        with pytest.raises(ConstructionError) as exc:
            SeparableMultiSpec.from_states([basis_proj(0, 2), np.eye(2) / 2])
        assert exc.value.reason == "not-unambiguously-discriminable"
        assert exc.value.details["failing_index"] == 0

    def test_perturbed_projector_residual_grows_linearly(self):
        # the fixed-point identity fails linearly once annihilation breaks
        spec = self.qutrit_spec()
        slopes = []
        for eps in (1e-4, 1e-3, 1e-2):
            perturbed = SeparableMultiSpec.from_parts(
                spec.sigmas,
                [spec.projectors[0], spec.projectors[1] + eps * basis_proj(0, 3)],
                b=spec.b,
            )
            c = build_separable_multi(perturbed, validate=False)
            res = trace_distance(chan.apply(c, spec.sigmas[0]), spec.sigmas[0])
            assert res >= 0.5 * eps
            slopes.append(res / eps)
        mean_slope = float(np.mean(slopes))
        assert all(abs(s - mean_slope) <= 0.2 * mean_slope for s in slopes)

    def test_report_contents(self):
        rep = engineer.separable_condition_report(self.qutrit_spec())
        assert rep["cp"] and rep["tp"]
        assert rep["max_cross_overlap"] < 1e-12
        assert max(rep["fixed_point_residuals"]) < 1e-12
        assert rep["convergence_margin"] == pytest.approx(1.0)


class TestBuildViaSdp:
    def test_orthogonal_pure_pair(self):
        res = build_via_sdp([basis_proj(0, 2), basis_proj(1, 2)])
        assert abs(np.trace(res.x.matrix).real - 2.0) < 1e-6
        resid_op = np.eye(2) - linops.partial_trace(res.x.matrix, (2, 2), over=1)
        assert np.abs(resid_op).max() < 1e-6
        assert res.cptp.cp and res.cptp.tp
        assert max(res.residuals) < 1e-8
        # residual operator vanished, so the decay sector never acts and the
        # contraction number is identically tr[B] = 1 without warning
        assert res.degenerate
        assert res.contraction == pytest.approx(1.0, abs=1e-6)
        assert not res.contraction_warning

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decay_state_equal_to_the_fixed_state_is_no_warning(self, d):
        # B = sigma gives w = 1 up to rounding, which the decay rule of both
        # cores accepts: no warning, whichever side of 1 rounding lands on
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma = random_density(rng, d)
            res = build_via_sdp([sigma], b=sigma)
            assert res.contraction == pytest.approx(1.0, abs=1e-9)
            assert not res.degenerate and not res.contraction_warning

    def test_single_pure_state_recovers_closed_form_term(self):
        sigma = basis_proj(0, 2)
        res = build_via_sdp([sigma], b=basis_proj(1, 2))
        assert abs(res.solution.objective_value - 1.0) < 1e-6
        # minimum-trace X is the first term of the closed-form construction
        spec = SeparableMultiSpec.from_top_eigenvector(sigma, basis_proj(1, 2))
        first_term = kron(sigma, spec.projectors[0].T) / spec.cross_overlaps[0, 0]
        assert np.abs(res.x.matrix - first_term).max() < 1e-5

    def test_duplicated_states_match_single(self):
        rho = basis_proj(0, 2)
        res_single = build_via_sdp([rho], b=basis_proj(1, 2))
        res_dup = build_via_sdp([rho, rho], b=basis_proj(1, 2))
        assert np.abs(res_single.x.matrix - res_dup.x.matrix).max() < 1e-8
        assert abs(res_single.solution.objective_value - res_dup.solution.objective_value) < 1e-8

    def test_mixed_states_fixed(self, rng):
        states = [random_density(rng, 2)]
        res = build_via_sdp(states)
        assert res.cptp.tp
        assert max(res.residuals) < 1e-7

    def test_tp_by_construction(self, rng):
        res = build_via_sdp([random_density(rng, 3)])
        reduced = linops.partial_trace(res.c.matrix, (3, 3), over=1)
        assert np.abs(reduced - np.eye(3)).max() < 1e-9


class TestFixedPointFace:
    """The face for the generic ``demo bell`` states: sigma0 has rank 3,
    sigma1 rank 2 with supp sigma1 inside supp sigma0, so no feasible
    Choi matrix is positive definite."""

    def bell_states(self):
        return list(cli.build_bell_demo_states(
            [0.8, 0.6, -0.6, 0.8, 0.6, 0.8, -0.8, 0.6],
            np.array([0.3, 0.4, 0.3]), np.array([0.2, 0.5, 0.3]),
        ))

    def test_isometry_has_nine_orthonormal_columns(self):
        v = fixed_point_face(self.bell_states())
        assert v.shape == (16, 9)
        assert np.abs(v.conj().T @ v - np.eye(9)).max() < 1e-12

    def test_identity_channel_lies_in_face(self):
        # every feasible X lies in the face, and the identity channel fixes every state
        v = fixed_point_face(self.bell_states())
        x = chan.identity_channel(4).matrix
        proj = v @ v.conj().T
        assert np.abs(proj @ x @ proj - x).max() < 1e-12

    def test_solves_optimal_on_face(self):
        states = self.bell_states()
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert "active face" not in res.solution.message  # no eigenvalue-split retry
        assert res.solution.primal_residual <= 1e-9
        assert max(res.residuals) <= 1e-9

    def test_full_rank_single_state_needs_no_face(self, rng):
        assert fixed_point_face([random_density(rng, 3)]) is None

    def test_small_eigenvalue_is_not_cut(self, rng):
        # an eigenvalue of 5e-8 is real support: cutting it would move the
        # constraints past the solver's inconsistency test
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        states = [u @ np.diag(w) @ u.conj().T
                  for w in ([0.6, 0.4 - 5e-8, 5e-8], [0.3, 0.7 - 5e-8, 5e-8])]
        assert fixed_point_face(states).shape[1] == 5
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert max(res.residuals) <= 1e-9

